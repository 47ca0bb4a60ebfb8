"""Builders for the recursive k-bonacci and Lucas matrix families.

The order-k base matrix places sequence terms on anti-diagonals: entry
(row, col), 1-based, holds term(j + k - row - col + 1).  Higher levels
repeat the same layout with order-k^(r-1) blocks in place of scalars, so
the level-r matrix has dimension k^r and entry (R, C), 0-based, holds
term(j + r(k-1) - ds(R) - ds(C)), ds the base-k digit sum of the
position.  The F and Lucas families are built from that formula through
its class table (_member_table), one value per pair of digit sums, which
is also the form the identity checkers compute on.  The companion matrix
advances the family by one index step per right-multiplication; it is
Q_r = Q_1 (x) I, the Kronecker product with the identity of dimension
k^(r-1), and is filled from that product entry by entry.  fast_f
powers the k-by-k companion matrix, lifts the result blockwise and
serves as the oracle for the matrix laws.  fast_term evaluates single
terms from x^j mod P_k(x) instead: k(k+1)/2 big-integer squarings per
bit of j (two at k = 2, by Cassini's identity), the last bit's replaced
by about k/2 products (the seeds' zeros empty half of the last level's
Hankel form; one product at k = 2), against O(k^3 log j) products for
the companion power.

Every matrix built here is wrapped unchecked (SquareMatrix._of): its
entries are sequence terms, 0 or 1, and its shape is fixed by k and r.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from operator import mul

from .matrix import SquareMatrix, _require_int
from .sequences import _times_x, _validate_order, lucas_term, term, x_power_mod


# members, or companion matrices, kept per builder; a suite run builds most members
# through identities._members, and only 104 (default grid) or 135 (dense) with build_higher
CACHE_SIZE = 1024


def _validate_level(r) -> None:
    _require_int("level", r, 1)


@lru_cache(maxsize=CACHE_SIZE)
def _digit_sums(k: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ds, w) for the level-r positions of order k: ds[R] is the base-k
    digit sum of position R = 0..k^r - 1, and w[d] the number of
    positions whose digit sum is d, for d = 0..r(k-1)."""
    ds = (0,)
    for _ in range(r):
        ds = tuple(a + d for a in range(k) for d in ds)
    w = [0] * (r * (k - 1) + 1)
    for d in ds:
        w[d] += 1
    return ds, tuple(w)


def _member_table(value, k: int, r: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Class table of the level-r member at index j of the order-k family
    over the terms value(i): row u, column v holds value(j + r(k-1) - u - v),
    the entry at every (R, C) with ds(R) = u and ds(C) = v.

    So the member reads only the 2r(k-1) + 1 terms around j.
    """
    top = r * (k - 1)
    terms = tuple(value(j + top - t) for t in range(2 * top + 1))
    return tuple(terms[u : u + top + 1] for u in range(top + 1))


def _spread(table, ds, row=tuple):
    """The rows, each and all made by row (tuple or list), of the matrix
    whose entry (R, C) is table[ds[R]][ds[C]]; equal digit sums share one."""
    rows = [row(map(t.__getitem__, ds)) for t in table]
    return row(map(rows.__getitem__, ds))


def _layout(value, k: int, r: int, j: int) -> SquareMatrix:
    """Level-r member at index j of the order-k family over the terms
    value(i): entry (R, C), 0-based, holds value(j + r(k-1) - ds(R) - ds(C)),
    where ds is the base-k digit sum."""
    rows = _spread(_member_table(value, k, r, j), _digit_sums(k, r)[0])
    return SquareMatrix._of(tuple(chain.from_iterable(rows)), len(rows))


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_base(k: int, j: int) -> SquareMatrix:
    """Order-k matrix of sequence terms anchored at index j."""
    return build_higher(k, 1, j)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_higher(k: int, r: int, j: int) -> SquareMatrix:
    """Level-r family member at index j; dimension k^r."""
    _validate_order(k)
    _validate_level(r)
    return _layout(partial(term, k), k, r, j)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_lucas(r: int, j: int) -> SquareMatrix:
    """Level-r Lucas family member at index j; dimension 2^r."""
    _validate_level(r)
    return _layout(lucas_term, 2, r, j)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_q(k: int, r: int) -> SquareMatrix:
    """Level-r companion matrix: identity blocks of dimension k^(r-1) down
    the first block column and on the first block superdiagonal, zero
    blocks elsewhere, so entry (R, C), 0-based, is Q_1[R // inner][C // inner]
    when R % inner == C % inner, and 0 otherwise."""
    _validate_order(k)
    _validate_level(r)
    inner = k ** (r - 1)
    dim = k * inner
    flat = tuple(
        1 if R % inner == C % inner and (C < inner or C // inner == R // inner + 1) else 0
        for R in range(dim)
        for C in range(dim)
    )
    return SquareMatrix._of(flat, dim)


def fast_f(k: int, r: int, j: int) -> SquareMatrix:
    """Level-r family member at index j >= 1 via companion-matrix powers.

    F_r(j) = F_r(1) Q_r^(j-1) with Q_r^(j-1) = q (x) I for q = Q_1^(j-1), so
    block (a, b) of the result is the sum over c of q[c][b] times block
    (a, c) of F_r(1).  Within one row of F_r(1), row[t::inner] holds entry
    t of each of the row's k blocks.  That costs O(k^3 log j) products for
    the power plus k^(2r+1) for the lift, against O(k^(3r) log j) for
    powering Q_r itself.  A row of F_r(1) is a function of its digit sum,
    so each of its r(k-1)+1 distinct rows is lifted once, keyed by value,
    and the lift is reused for its equal rows.
    """
    _validate_order(k)
    _validate_level(r)
    _require_int("index", j, 1)
    q_cols = tuple(zip(*(build_q(k, 1) ** (j - 1)).rows))
    inner = k ** (r - 1)
    rows = build_higher(k, r, 1).rows
    lifted = {row: [sum(map(mul, col, row[t::inner])) for col in q_cols for t in range(inner)] for row in set(rows)}
    return SquareMatrix._of(tuple(chain.from_iterable(map(lifted.__getitem__, rows))), k * inner)


def fast_term(k: int, j: int) -> int:
    """term(k, j) for j >= 0, from x^m mod P_k(x), m = j - (j >> 1), with
    no last squaring.

    With c = x^m mod P_k, s(m + n) = sum of c_i s(i + n), so s(j) is the
    Hankel form sum over i, l of c_i c_l s(i + l - e), e = j & 1.  The
    seeds give s(-1) = 1 and s(n) = 0 for 0 <= n <= k - 2, so for odd j
    row and column 0 leave only c_0^2, and for either parity the block
    of e <= i, l < a vanishes, a = (k + e) // 2.  What is left is the sum
    over l >= a of c_l (2 U_l + V_l), with U_l and V_l the sums of
    c_i s(i + l - e) over e <= i < a and over i >= a.  2 U_l + V_l is the
    top coefficient of x^(l-e) w(x), w(x) the sum of 2 c_i x^i over
    e <= i < a and of c_i x^i over i >= a.  A step by x adds the top to
    every coefficient, so top(x^t w) is w_(k-1-t) plus the tops before
    it, one running sum.  The last level costs k - a products, plus
    c_0^2 at odd j, where a last squaring would cost k(k+1)/2 squarings.
    At k = 2 that is one product at either parity: F(m)(2F(m-1) + F(m))
    for even j, and for odd j, where the form is F(m-1)^2 + F(m)^2,
    Cassini's identity F(m-1)F(m+1) - F(m)^2 = (-1)^m turns the two
    squarings into F(m)(2F(m) - F(m-1)) + (-1)^m.

    Always takes the polynomial path, never the term window, so it stays
    an independent check on term() at every index.
    """
    _validate_order(k)
    _require_int("index", j, 0)
    e = j & 1
    c = x_power_mod(k, j >> 1)
    if e:
        c = _times_x(c)
        if k == 2:
            return c[1] * (2 * c[1] - c[0]) + (-1 if (j + 1) & 2 else 1)  # (-1)^m, m = (j + 1) / 2
    a = (k + e) // 2
    total = c[0] * c[0] if e else 0
    before = 0
    for l, coefficient in enumerate(reversed([2 * x for x in c[e:a]] + c[a:]), e):
        top = coefficient + before
        before += top
        if l >= a:
            # CPython squares faster than it multiplies two ints
            total += c[l] * c[l] if top == c[l] else c[l] * top
    return total
