"""Property tests for terms beyond the window cap and for the polynomial
squaring behind them.

Random indices with WINDOW_CAP < |j| <= 10^5 on both sides of zero, at
orders 2..8: the forward recurrence, the backward recurrence and the
double-shift law must hold whichever path served each term.  Random
coefficient vectors: _square_mod must agree with a plain convolution
reduced by P_k.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.sequences import WINDOW_CAP, _square_mod, term

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


def square_then_reduce(c: list[int]) -> list[int]:
    """c(x)^2 by schoolbook convolution, then x^d = x^(d-1) + ... + x^(d-k)
    applied from the top degree down."""
    k = len(c)
    p = [0] * (2 * k - 1)
    for i, a in enumerate(c):
        for m, b in enumerate(c):
            p[i + m] += a * b
    for d in range(2 * k - 2, k - 1, -1):
        for n in range(1, k + 1):
            p[d - n] += p[d]
        p[d] = 0
    return p[:k]


# signed coefficients up to a few thousand bits, zero often
COEFFICIENT = st.one_of(st.just(0), st.integers(-(2**3000), 2**3000), st.integers(-9, 9))


@settings(max_examples=200, deadline=None)
@given(c=st.integers(2, 8).flatmap(lambda k: st.lists(COEFFICIENT, min_size=k, max_size=k)))
def test_square_mod_matches_convolution_and_reduction(c):
    assert _square_mod(c) == square_then_reduce(c)
