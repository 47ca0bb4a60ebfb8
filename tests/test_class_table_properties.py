"""Property tests for the class tables the identity checkers compute on.

A level-r family member, and every sum, integer multiple and product of
members, is held by identities._member as its w-scaled class table: a
SquareMatrix over digit-sum pairs whose column v is scaled by w[v], the
number of positions with digit sum v.  Each operation on tables of
builder members, expanded through identities._entries, must give the
SquareMatrix that the same operation gives on the builders' dense
matrices, at every order 2..4 and level with k^r <= 64; table equality
must agree with matrix equality, and a table's report payload with the
dense one.

The linear checkers hold an integer combination of members as its term
vector instead (identities._Terms), whose class table is Hankel: random
combinations must be equal as vectors exactly when their dense matrices
are, cut to any level below the vectors' own, and be written as the dense
matrices.  geometric's literal identity side, c*I - m, is such a vector
with c in its last place, and must decide and write its cases as the
dense c*I - m does.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.builders import _digit_sums, build_higher, build_lucas
from kbonacci.identities import FAILS, HOLDS, _case, _cut, _entries, _member, _serialize, _Terms, _units, _vectors
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


def _level_value(v, k, top, r):
    """v, a vector of level top, as level r's value in a suite run (_cut)."""
    return next(_cut([({}, v)], k, top, r))[1]


def _dense_rows(v, k, r):
    """The rows of the dense matrix that level r's value v stands for:
    entry (R, C) is S(ds(R) + ds(C)), plus c on the diagonal."""
    ds = _digit_sums(k, r)[0]
    *S, c = v
    return tuple(tuple(S[a + b] + c * (R == C) for C, b in enumerate(ds)) for R, a in enumerate(ds))


COEFFICIENTS = st.lists(st.tuples(INDEX, st.integers(-3, 3)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(level=LEVELS, above=st.integers(0, 2), terms=COEFFICIENTS, e=st.integers(-2, 2), f=st.integers(-1, 1), i=INDEX)
def test_vector_combinations_match_dense_matrices(level, above, terms, e, f, i):
    """A = sum of a*X(j), and B = A + e*(X(i+k) - 2X(i+k-1) + X(i-1)) + f*X(i),
    which is A exactly when f = 0 (the double-shift law), as vectors of
    level r + above cut to level r and as dense level-r members."""
    k, r = level
    top = r + above
    X = partial(_vectors, "F", k, top * (k - 1))

    def combination(member, extra):
        value = 0 * member(0)
        for j, a in terms:
            value = value + a * member(j)
        if extra:
            value = value + e * (member(i + k) - 2 * member(i + k - 1) + member(i - 1)) + f * member(i)
        return value

    A, B = (_level_value(combination(X, extra), k, top, r) for extra in (False, True))
    a, b = (combination(partial(build_higher, k, r), extra) for extra in (False, True))
    assert _dense_rows(A, k, r) == a.rows
    assert _dense_rows(B, k, r) == b.rows
    assert (A == B) == (a == b) == (f == 0)
    assert _serialize(A, k, r) == to_json_dict(a)
    assert _serialize(B, k, r) == to_json_dict(b)


@settings(max_examples=30, deadline=None)
@given(r=st.integers(1, 6), above=st.integers(0, 2), i=INDEX, j=INDEX)
def test_lucas_vectors_match_the_lucas_builder(r, above, i, j):
    A, B = (_level_value(_vectors("L", 2, r + above, x), 2, r + above, r) for x in (i, j))
    a, b = build_lucas(r, i), build_lucas(r, j)
    assert _dense_rows(A, 2, r) == a.rows
    assert _serialize(A, 2, r) == to_json_dict(a)
    assert (A == B) == (a == b)


# geometric's literal identity side, c*I - m, is a vector with c in its
# last place, decided and written at class level; the reference is the
# dense matrix c*I - m compared entrywise and written by to_json_dict


def _class_diagonal(m, k, r):
    """Of m's kind: the vector with S(d) = 1 at every even d, or for a
    dense m the identity.  c times it minus m is the class-level look-alike
    of c*I - m, equal to it only at r(k-1) = 1 (or for a dense m)."""
    if not isinstance(m, tuple):
        return identity(k**r)
    return _Terms((1, 0) * (len(m) // 2))


def _literal_against_dense(k, r, lhs, c, m, reference):
    """The case of level r's value lhs against c*I - m, m a vector of level
    r or a dense matrix, checked against the dense c*I - reference,
    reference the dense matrix of m; the vectors are cut to level r from
    their own level first."""
    dense = c * identity(k**r) - reference
    rhs = c * _units(m)[0] - m
    if isinstance(m, tuple):
        lhs, rhs = (_level_value(v, k, r, r) for v in (lhs, rhs))
    case = _case("geometric", {"k": k, "r": r, "reading": "literal-identity"}, lhs, rhs)
    rows = _dense_rows(lhs, k, r) if isinstance(lhs, tuple) else lhs.rows
    assert (case.status == HOLDS) == (rows == dense.rows)
    if case.status != HOLDS:
        assert case.counterexample["rhs"] == to_json_dict(dense)
        assert case.counterexample["lhs"] == to_json_dict(SquareMatrix(rows))
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
        d = m.dim
        u, v = cell[0] % d, cell[1] % d
        nudge = SquareMatrix._of(tuple(e if (a, b) == (u, v) else 0 for a in range(d) for b in range(d)), d)
    else:
        A, m = (_vectors("F", k, r * (k - 1), x) for x in (i, j))
        # e at one d of the vector, or in its c
        nudge = _Terms(e if n == cell[0] % len(m) else 0 for n in range(len(m)))
    lhs = c * _class_diagonal(m, k, r) - m + mix * A + nudge
    _literal_against_dense(k, r, lhs, c, m, build_higher(k, r, j))


def test_literal_identity_pair_corners():
    """At every level, for vector and dense members: the class-diagonal
    look-alike c*D - m holds where I is a Hankel form (r(k-1) = 1) or for a
    dense member; -m holds at c = 0 on every level; c*D - m fails at c != 0
    wherever I is no Hankel form."""
    statuses = set()
    for k in (2, 3, 4):
        for r in range(1, 7):
            if k**r > 64:
                continue
            reference = build_higher(k, r, 5)
            for m in (_vectors("F", k, r * (k - 1), 5), reference):
                diagonal = _class_diagonal(m, k, r)
                # I is a Hankel form of the vector's kind only at r(k-1) = 1
                not_hankel = isinstance(m, tuple) and r * (k - 1) >= 2
                for c in (0, 1, -3, 2**40):
                    status = _literal_against_dense(k, r, c * diagonal - m, c, m, reference)
                    assert status == (FAILS if c and not_hankel else HOLDS), (k, r, c, type(m))
                    statuses.add((status, not_hankel))
                    # m != 0, so c*D alone is never c*I - m
                    assert _literal_against_dense(k, r, c * diagonal, c, m, reference) == FAILS
    assert statuses == {(HOLDS, False), (HOLDS, True), (FAILS, True)}
