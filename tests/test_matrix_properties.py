"""SquareMatrix against a nested-list reference kept here: every operation
of the flat row-major storage, on dimensions 1-6 with negative entries and
entries of over 600 digits (past matrix.LEAF_DIGITS)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.matrix import SquareMatrix, compose, decompose, from_json_dict, to_json_dict

ENTRIES = (
    st.integers(-50, 50)
    | st.integers(10**600, 10**640)
    | st.integers(-(10**640), -(10**600))
)
SETTINGS = settings(max_examples=60, deadline=None)


def lists(n: int):
    """n-by-n nested lists of entries."""
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def pairs(draw):
    """Two nested lists of one drawn dimension."""
    n = draw(st.integers(1, 6))
    return draw(lists(n)), draw(lists(n))


def as_rows(a) -> tuple:
    return tuple(map(tuple, a))


def ref_product(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


@SETTINGS
@given(pairs())
def test_rows_entry_and_equality(ab):
    a, b = ab
    n = len(a)
    A, B = SquareMatrix(a), SquareMatrix(b)
    assert A.dim == n
    assert A.rows == as_rows(a)
    assert all(A.entry(i, j) == a[i][j] == A.entry(i - n, j - n) for i in range(n) for j in range(n))
    for i, j in ((n, 0), (0, n), (-n - 1, 0)):
        with pytest.raises(IndexError):
            A.entry(i, j)
    assert (A == B) == (a == b)
    assert A == SquareMatrix(as_rows(a)) == SquareMatrix._of(tuple(x for row in a for x in row), n)
    assert hash(A) == hash(SquareMatrix(as_rows(a)))
    assert A.is_symmetric() == (a == ref_transpose(a))


@SETTINGS
@given(pairs(), ENTRIES)
def test_entrywise_operations(ab, c):
    a, b = ab
    A, B = SquareMatrix(a), SquareMatrix(b)
    pairwise = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
    assert (A + B).rows == as_rows([[x + y for x, y in row] for row in pairwise])
    assert (A - B).rows == as_rows([[x - y for x, y in row] for row in pairwise])
    assert (-A).rows == as_rows([[-x for x in row] for row in a])
    scaled = as_rows([[c * x for x in row] for row in a])
    assert A.scale(c).rows == (c * A).rows == (A * c).rows == scaled
    symmetric = SquareMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, ref_transpose(a))])
    assert symmetric.is_symmetric()


@SETTINGS
@given(pairs(), st.integers(0, 3))
def test_products_and_powers(ab, e):
    a, b = ab
    A, B = SquareMatrix(a), SquareMatrix(b)
    assert (A * B).rows == as_rows(ref_product(a, b))
    power = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(e):
        power = ref_product(power, a)
    assert (A**e).rows == as_rows(power)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_compose_and_decompose(k, inner, data):
    blocks = [[data.draw(lists(inner)) for _ in range(k)] for _ in range(k)]
    expected = [
        [x for block in block_row for x in block[i]] for block_row in blocks for i in range(inner)
    ]
    M = compose([[SquareMatrix(block) for block in block_row] for block_row in blocks])
    assert M.rows == as_rows(expected)
    grid = decompose(M, k)
    assert [[block.rows for block in row] for row in grid] == [[as_rows(b) for b in row] for row in blocks]


@SETTINGS
@given(pairs())
def test_json_round_trip(ab):
    a, _ = ab
    A = SquareMatrix(a)
    data = to_json_dict(A)
    assert data == {"dim": len(a), "entries": [[str(x) for x in row] for row in a]}
    assert from_json_dict(data) == A
