"""Property tests for the class tables the identity checkers compute on.

A level-r family member, and every sum, integer multiple and product of
members, is held by identities._member as its w-scaled class table: a
SquareMatrix over digit-sum pairs whose column v is scaled by w[v], the
number of positions with digit sum v.  Each operation on tables of
builder members, expanded through identities._entries, must give the
SquareMatrix that the same operation gives on the builders' dense
matrices, at every order 2..4 and level with k^r <= 64; table equality
must agree with matrix equality, and a table's report payload with the
dense one.  geometric's literal identity side, held as the pair (c, m)
for c*I - m, must decide and write its cases as the dense c*I - m does.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.builders import _digit_sums, build_higher, build_lucas
from kbonacci.identities import FAILS, HOLDS, _case, _entries, _IdentityMinus, _member, _serialize
from kbonacci.matrix import SquareMatrix, identity, to_json_dict
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

    def dense(table):
        return _entries(table, k, r)

    assert A.dim == r * (k - 1) + 1
    assert dense(A) == a.rows
    assert dense(A + B) == (a + b).rows
    assert dense(A - B) == (a - b).rows
    assert dense(c * A) == (c * a).rows
    assert dense(A * c) == (a * c).rows
    assert dense(A * B) == (a * b).rows
    # products of products are no family members, and stay exact
    assert dense((A * B) * C - c * (C * A)) == ((a * b) * d - c * (d * a)).rows
    assert (A == B) == (a == b)
    assert (A * B == B * A) == (a * b == b * a)
    assert _serialize(A * B, k, r) == to_json_dict(a * b)
    assert _serialize(a * b, k, r) == to_json_dict(a * b)


@settings(max_examples=30, deadline=None)
@given(r=st.integers(1, 6), i=INDEX, j=INDEX)
def test_lucas_tables_match_the_lucas_builder(r, i, j):
    A, B = (_member(lucas_term, 2, r, x) for x in (i, j))
    a, b = build_lucas(r, i), build_lucas(r, j)
    assert _entries(A, 2, r) == a.rows
    assert _entries(A * B - 5 * B, 2, r) == (a * b - 5 * b).rows


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 6), j=INDEX)
def test_level_one_tables_are_the_dense_members(k, j):
    assert _member(partial(term, k), k, 1, j).rows == build_higher(k, 1, j).rows


@settings(max_examples=40, deadline=None)
@given(level=LEVELS, i=INDEX, j=INDEX)
def test_table_against_dense_cases(level, i, j):
    k, r = level
    A, B = (_member(partial(term, k), k, r, x) for x in (i, j))
    a, b = build_higher(k, r, i), build_higher(k, r, j)
    assert _entries(A, k, r) == a.rows
    assert _entries(A * B + A, k, r) == (a * b + a).rows
    # a + I differs from a at every level; each side is written as the
    # dense matrix it stands for
    off = a + identity(k**r)
    assert _entries(A, k, r) != off.rows
    assert _serialize(A, k, r) == to_json_dict(a)
    assert _serialize(off, k, r) == to_json_dict(off)


# geometric's literal identity side, c*I - m, is held as the pair (c, m)
# and decided and written at class level; the reference is the dense
# matrix c*I - m compared entrywise and written by to_json_dict


def _class_diagonal(m, k, r):
    """The table (or, for a dense m, the matrix) of ones at every position
    whose row and column share a digit sum: c times it minus m is the
    class-level look-alike of c*I - m, equal to it only where w is all 1."""
    d = m.dim
    w = (1,) * d if d == k**r else _digit_sums(k, r)[1]
    return SquareMatrix._of(tuple(w[u] if u == v else 0 for u in range(d) for v in range(d)), d), w


def _literal_against_dense(k, r, lhs, c, m, reference):
    """The case of lhs against the pair (c, m), checked against the dense
    c*I - reference, reference the dense matrix of m."""
    dense = c * identity(k**r) - reference
    case = _case("geometric", {"k": k, "r": r, "reading": "literal-identity"}, lhs, _IdentityMinus((c, m)))
    assert (case.status == HOLDS) == (_entries(lhs, k, r) == dense.rows)
    if case.status != HOLDS:
        assert case.counterexample["rhs"] == to_json_dict(dense)
    return case.status


@settings(max_examples=80, deadline=None)
@given(
    level=LEVELS,
    i=INDEX,
    j=INDEX,
    c=st.sampled_from([0, 1, 2]) | SCALAR,
    mix=st.integers(-1, 1),
    e=st.integers(-2, 2),
    cell=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    dense_members=st.booleans(),
)
def test_literal_identity_pair_matches_dense(level, i, j, c, mix, e, cell, dense_members):
    k, r = level
    if dense_members:
        A, m = build_higher(k, r, i), build_higher(k, r, j)
    else:
        A, m = (_member(partial(term, k), k, r, x) for x in (i, j))
    diagonal, w = _class_diagonal(m, k, r)
    d = m.dim
    u, v = cell[0] % d, cell[1] % d
    nudge = SquareMatrix._of(tuple(e * w[v] if (a, b) == (u, v) else 0 for a in range(d) for b in range(d)), d)
    lhs = c * diagonal - m + mix * A + nudge
    _literal_against_dense(k, r, lhs, c, m, build_higher(k, r, j))


def test_literal_identity_pair_corners():
    """At every level, for table and dense members: c*I - m itself holds
    where w is all 1 (r = 1, or a dense member); -m holds at c = 0 on every
    level; the class-diagonal look-alike c*D - m fails at c != 0 wherever a
    class has two or more positions."""
    statuses = set()
    for k in (2, 3, 4):
        for r in range(1, 7):
            if k**r > 64:
                continue
            reference = build_higher(k, r, 5)
            for m in (_member(partial(term, k), k, r, 5), reference):
                diagonal, w = _class_diagonal(m, k, r)
                for c in (0, 1, -3, 2**40):
                    status = _literal_against_dense(k, r, c * diagonal - m, c, m, reference)
                    assert status == (HOLDS if c == 0 or max(w) == 1 else FAILS), (k, r, c, m.dim)
                    statuses.add((status, max(w) > 1))
                    # m != 0, so c*D alone is never c*I - m
                    assert _literal_against_dense(k, r, c * diagonal, c, m, reference) == FAILS
    assert statuses == {(HOLDS, False), (HOLDS, True), (FAILS, True)}
