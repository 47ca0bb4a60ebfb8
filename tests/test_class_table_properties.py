"""Property tests for the class tables the identity checkers compute on.

A level-r family member, and every sum, integer multiple and product of
members, is held by identities._Classes as a table over digit-sum pairs.
Each operation on tables of builder members, expanded to a matrix, must
give the SquareMatrix that the same operation gives on the builders'
dense matrices, at every order 2..4 and level with k^r <= 64; table
equality must agree with matrix equality, and a table's report payload
with the dense one.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.builders import build_higher, build_lucas
from kbonacci.identities import _member
from kbonacci.matrix import to_json_dict
from kbonacci.sequences import lucas_term, term

LEVELS = st.sampled_from([(k, r) for k in (2, 3, 4) for r in range(1, 7) if k**r <= 64])
INDEX = st.integers(-20, 30)
SCALAR = st.integers(-(10**30), 10**30)


@settings(max_examples=80, deadline=None)
@given(level=LEVELS, i=INDEX, j=INDEX, m=INDEX, c=SCALAR)
def test_table_operations_match_dense_matrices(level, i, j, m, c):
    k, r = level
    A, B, C = (_member(partial(term, k), k, r, x) for x in (i, j, m))
    a, b, d = (build_higher(k, r, x) for x in (i, j, m))
    assert A.dense() == a
    assert (A + B).dense() == a + b
    assert (A - B).dense() == a - b
    assert (c * A).dense() == c * a
    assert (A * c).dense() == a * c
    assert (A * B).dense() == a * b
    # products of products are no family members, and stay exact
    assert ((A * B) * C - c * (C * A)).dense() == (a * b) * d - c * (d * a)
    assert (A == B) == (a == b)
    assert (A * B == B * A) == (a * b == b * a)
    assert (A * B == B * A) == (A * B == b * a)
    assert (A * B).json_dict() == to_json_dict(a * b)


@settings(max_examples=30, deadline=None)
@given(r=st.integers(1, 6), i=INDEX, j=INDEX)
def test_lucas_tables_match_the_lucas_builder(r, i, j):
    A, B = (_member(lucas_term, 2, r, x) for x in (i, j))
    a, b = build_lucas(r, i), build_lucas(r, j)
    assert A.dense() == a
    assert (A * B - 5 * B).dense() == a * b - 5 * b
