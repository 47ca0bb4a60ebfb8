"""Property tests for terms beyond the window cap, for the polynomial
squaring behind them and for the frames that store terms.

Random indices with WINDOW_CAP < |j| <= 10^5 on both sides of zero, at
orders 2..8: the forward recurrence, the backward recurrence and the
double-shift law must hold whichever path served each term.  Random
coefficient vectors: _square_mod must agree with a plain convolution
reduced by P_k on both sides of the size where it turns to evaluation
and interpolation, and _toom_square with the plain convolution itself.
Random factors: _mul must agree with the builtin product on both sides
of the size where it splits them.  At order 2, x_power_mod's doubling by
Cassini's identity must agree with powering by _square_mod and with the
window's terms.
Random walks of reads on one sequence object must match the dict-based
oracle of test_sequences and leave every frame in bounds.
"""

from __future__ import annotations

from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sequences import oracle_values

from kbonacci import sequences
from kbonacci.sequences import (
    FRAME_TERMS,
    TOOM3_BITS,
    TOOM_BITS,
    TOOM_ORDER_CAP,
    WINDOW_CAP,
    KbonacciSequence,
    _mul,
    _over_x,
    _square_mod,
    _times_x,
    _toom_square,
    term,
    x_power_mod,
)

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


def convolution(c: list[int]) -> list[int]:
    """The 2k - 1 coefficients of c(x)^2 by schoolbook convolution."""
    p = [0] * (2 * len(c) - 1)
    for i, a in enumerate(c):
        for m, b in enumerate(c):
            p[i + m] += a * b
    return p


def square_then_reduce(c: list[int]) -> list[int]:
    """c(x)^2 by schoolbook convolution, then x^d = x^(d-1) + ... + x^(d-k)
    applied from the top degree down."""
    k = len(c)
    p = convolution(c)
    for d in range(2 * k - 2, k - 1, -1):
        for n in range(1, k + 1):
            p[d - n] += p[d]
        p[d] = 0
    return p[:k]


# signed coefficients up to a few thousand bits, zero often
SMALL = st.one_of(st.just(0), st.integers(-(2**3000), 2**3000), st.integers(-9, 9))
# and up to 16,000 bits, past the size where _square_mod squares by
# evaluation at every order from 3 (TOOM_BITS k^2 / ((k-1)(k-2)) bits,
# 13,500 at k = 3 and 4,571 at k = 8) as well as below it
COEFFICIENT = SMALL | st.integers(0, 16_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@settings(max_examples=200, deadline=None)
@given(c=st.integers(2, 8).flatmap(lambda k: st.lists(COEFFICIENT, min_size=k, max_size=k)))
@example(c=[0, -(2**9_000), 2**14_000 - 1])
@example(c=[0, 3, -(2**5_000), 0, 7, 2**6_000 + 1, 0, -(2**4_600)])
def test_square_mod_matches_convolution_and_reduction(c):
    assert _square_mod(c) == square_then_reduce(c)


def test_square_mod_takes_evaluation_past_the_crossover(monkeypatch):
    # the rule reads the top coefficient: just past TOOM_BITS k^2 / ((k-1)(k-2)) bits
    calls = []
    monkeypatch.setattr(sequences, "_toom_square", lambda c: calls.append(len(c)) or convolution(c))
    for k in (3, 4, 8):
        bits = TOOM_BITS * k * k // ((k - 1) * (k - 2))
        for top, evaluated in ((1 << (bits - 1), False), (1 << (bits + 1), True)):
            calls.clear()
            _square_mod([0] * (k - 1) + [top])
            assert calls == ([k] if evaluated else []), (k, top)


@settings(max_examples=100, deadline=None)
@given(c=st.integers(3, 40).flatmap(lambda k: st.lists(SMALL, min_size=k, max_size=k)))
@example(c=[-1, 0, 2**3000])
@example(c=[((-1) ** i * 7 ** (i % 40) if i % 3 else 0) for i in range(TOOM_ORDER_CAP)])
def test_evaluation_square_matches_convolution(c):
    # called directly, so small coefficients and orders up to the cap reach it
    assert _toom_square(c) == convolution(c)


# signed factors of a few bits or from just below TOOM3_BITS to ten times
# it, where _mul splits the parts of a split again
FACTOR = (st.integers(0, 64) | st.integers(TOOM3_BITS - 64, 10 * TOOM3_BITS)).flatmap(
    lambda bits: st.integers(-(2**bits), 2**bits)
)


@settings(max_examples=100, deadline=None)
@given(a=FACTOR, b=FACTOR)
@example(a=2**TOOM3_BITS - 1, b=-(3 ** (2 * TOOM3_BITS)))
@example(a=-(3 ** (3 * TOOM3_BITS)), b=7 ** (2 * TOOM3_BITS) + 1)
def test_mul_matches_the_builtin_product(a, b):
    assert _mul(a, b) == a * b
    assert _mul(a, a) == a * a


def generic_power(k: int, j: int) -> list[int]:
    """x^j mod P_k by left-to-right binary powering on _square_mod at
    every order, so with no order-2 doubling."""
    step = _times_x if j >= 0 else _over_x
    c = [1] + [0] * (k - 1)
    for bit in bin(abs(j))[2:]:
        c = _square_mod(c)
        if bit == "1":
            c = step(c)
    return c


@settings(max_examples=200, deadline=None)
@given(j=st.integers(-20_000, 20_000))
@example(j=10**5 + 1)
@example(j=-(10**5 + 1))
def test_order_2_doubling_matches_generic_squaring(j):
    assert x_power_mod(2, j) == generic_power(2, j)


def test_order_2_power_is_a_pair_of_window_terms():
    # x^j = F(j) x + F(j-1) mod P_2, read here from the window, which
    # steps by the double-shift law and never powers
    for j in range(1 - WINDOW_CAP, WINDOW_CAP + 1):
        assert x_power_mod(2, j) == [term(2, j - 1), term(2, j)], j


def _reach(k: int) -> tuple[int, int]:
    """(frame, edge): a side frame's most terms, and the largest |j| a walk
    reads, four frames past the cap."""
    frame = FRAME_TERMS * (k + 1)
    return frame, WINDOW_CAP + 4 * frame


@cache
def _reference(k: int) -> dict[int, int]:
    edge = _reach(k)[1] + 2 * k + 2  # room for the longest range read
    return oracle_values(k, -edge, edge)


# k = 70 is past the 64 terms where a deque frame switched read strategy
@settings(max_examples=45, deadline=None)
@given(k=st.sampled_from((2, 5, 70)), data=st.data())
def test_random_walks_of_reads_match_the_oracle(k, data):
    frame, edge = _reach(k)
    reference = _reference(k)
    special = (0, WINDOW_CAP, -WINDOW_CAP, WINDOW_CAP + 1, -WINDOW_CAP - 1, edge, -edge)
    j = data.draw(st.sampled_from(special) | st.integers(-edge, edge), label="start")
    # jumps within a frame and up to four frames long, both ways
    longer = st.integers(frame + 1, 4 * frame).flatmap(lambda d: st.sampled_from((d, -d)))
    jump = st.integers(-frame, frame) | longer
    # -1 reads term(j), n >= 0 reads term_range(j, j + n)
    walk = st.lists(st.tuples(jump, st.integers(-1, 2 * k + 1)), min_size=1, max_size=30)
    seq = KbonacciSequence(k)
    for d, n in data.draw(walk, label="walk"):
        j = max(-edge, min(edge, j + d))
        if n < 0:
            assert seq.term(j) == reference[j], (k, j)
        else:
            assert seq.term_range(j, j + n) == [reference[i] for i in range(j, j + n + 1)], (k, j, n)
        window = seq._window
        assert -WINDOW_CAP <= window.lo and window.hi <= WINDOW_CAP + k
        for side in seq._frames.values():
            assert len(side.up) + len(side.down) - (k + 1) <= FRAME_TERMS * (k + 1)
