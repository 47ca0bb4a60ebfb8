"""Property tests for the conversions between integers and decimal text.

matrix.decimal_text must write what str writes with the interpreter's
digit limit lifted, and matrix.parse_integer must read that text back,
for integers of both signs whose sizes are drawn log-uniformly from 0 to
10^6 bits.  Fixed cases sit at the leaf size, where both
helpers switch from plain str/int to splitting in halves.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.matrix import LEAF_DIGITS, decimal_text, parse_integer

MAX_BITS = 10**6


@contextmanager
def no_digit_limit():
    """The interpreter's int-to-text digit limit lifted, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def drawn(seed: int) -> int:
    """An integer of random sign whose bit length b + 1 is log-uniform on
    [1, MAX_BITS + 1], so b runs from 0 to MAX_BITS."""
    rng = random.Random(seed)
    bits = int(2 ** rng.uniform(0, math.log2(MAX_BITS + 1))) - 1
    return rng.choice((1, -1)) * (rng.getrandbits(bits) | (1 << bits >> 1))


INTEGERS = st.integers(0, 2**32).map(drawn)


def check(n: int) -> None:
    """The helpers, at the interpreter's own limit, against str with the
    limit lifted."""
    with no_digit_limit():
        text = str(n)
    assert decimal_text(n) == text
    assert parse_integer(text) == n


@settings(max_examples=25, deadline=None)
@given(n=INTEGERS)
def test_matches_str_and_int(n):
    check(n)


@pytest.mark.parametrize("digits", [LEAF_DIGITS - 1, LEAF_DIGITS, LEAF_DIGITS + 1])
def test_at_the_leaf_size(digits):
    for n in (10 ** (digits - 1), 10**digits - 1):
        check(n)
        check(-n)
        assert parse_integer("+" + "0" * digits + decimal_text(n)) == n
