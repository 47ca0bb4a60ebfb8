"""Property tests for terms beyond the window cap.

Random indices with WINDOW_CAP < |j| <= 10^5 on both sides of zero, at
orders 2..8: the forward recurrence, the backward recurrence and the
double-shift law must hold whichever path served each term.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.sequences import WINDOW_CAP, term

FAR = st.integers(WINDOW_CAP + 9, 10**5)
SIGN = st.sampled_from((1, -1))
ORDER = st.integers(2, 8)


@settings(max_examples=60, deadline=None)
@given(k=ORDER, size=FAR, sign=SIGN)
def test_forward_recurrence_beyond_the_cap(k, size, sign):
    j = sign * size
    assert term(k, j) == sum(term(k, j - i) for i in range(1, k + 1))


@settings(max_examples=60, deadline=None)
@given(k=ORDER, size=FAR, sign=SIGN)
def test_backward_recurrence_beyond_the_cap(k, size, sign):
    j = sign * size
    assert term(k, j) == term(k, j + k) - sum(term(k, j + i) for i in range(1, k))


@settings(max_examples=60, deadline=None)
@given(k=ORDER, size=FAR, sign=SIGN)
def test_double_shift_law_beyond_the_cap(k, size, sign):
    j = sign * size
    assert term(k, j + 1) == 2 * term(k, j) - term(k, j - k)
