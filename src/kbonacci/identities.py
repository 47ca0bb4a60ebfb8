"""Exact checkers for the cataloged sequence and matrix identities.

Each checker evaluates both sides of one identity family, literally as
cataloged, over an explicit parameter grid.  Nothing is rearranged from
one side to the other; the two sides are computed independently and
compared exactly.  A case reports one of four statuses:

  holds            both sides equal
  fails            sides differ; the counterexample carries both values
  holds-corrected  the cataloged form fails but a documented corrected
                   form verifies
  skipped          parameters outside the identity's stated domain

Scalar cases run at level r = 0 on sequence terms; matrix cases run the
same shape of identity on the level-r block family.  An integer
combination of members is the Hankel form of one term vector, entry
(R, C) = S(ds(R) + ds(C)), ds the digit sum, so the nine linear checkers
run on vectors (_Terms), once per order for every level (_View).  The
product checkers hold each member as its w-scaled class table (_member);
only q_power stays dense.  Every checker's cases are made by one
generator that is handed its evaluators.  At order 2 and level 1
every member is a power of the companion matrix Q, so there each
checker's generator also runs on plain powers of Q, an independent second
oracle; a disagreement there is a library defect and raises instead of
reporting.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from collections import namedtuple
from itertools import chain, repeat, tee
from json.encoder import encode_basestring_ascii as _quote
from operator import add, floordiv, mul, sub
from types import GeneratorType

from .builders import CACHE_SIZE, _digit_sums, _member_table, _spread, build_higher, fast_f
from .expectations import expected_reason
from .matrix import _HIGH, _LOW, SquareMatrix, _require_int, decimal_text, identity
from .sequences import _lucas, lucas_term, term, term_range

HOLDS = "holds"
FAILS = "fails"
HOLDS_CORRECTED = "holds-corrected"
SKIPPED = "skipped"


def _check_bounds(grid) -> None:
    """Check the index bounds that CheckerParams and SuiteGrid share."""
    _require_int("n_max", grid.n_max, 1)
    _require_int("m_max", grid.m_max, 1)
    _require_int("j_min", grid.j_min, None)
    _require_int("j_max", grid.j_max, None)
    if grid.j_min > grid.j_max:
        raise ValueError("empty parameter grid")


def _checked_make(cls, values):
    """namedtuple's _make, through which _replace builds, by way of
    cls.__new__ and its checks."""
    return cls(*values)


class CheckerParams(namedtuple("CheckerParams", "k r n_max m_max j_min j_max", defaults=(2, 0, 12, 12, -6, 12))):
    """Grid for one checker run: order k, level r, and index bounds, all
    ints, checked when the record is made.

    r = 0 selects the scalar form; r >= 1 selects the level-r matrix
    form.  Parity-scaled identities derive their exponent from r.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_int("order", self.k, 2)
        _require_int("level", self.r, 0)
        _check_bounds(self)
        return self


class CheckCase(namedtuple("CheckCase", "checker params status counterexample reason", defaults=(None, None))):
    """Outcome of one identity instance: the checker id (str), the case's
    params (dict), its status, the counterexample (dict or None) and the
    reason (str or None).  A failing case carries the documented reason it
    is expected to fail, or None when it is not: it is then unexpected,
    and a suite run that meets it does not pass.

    counterexample is read-only: in a table's payload the rows of equal
    digit sum are one shared list.  A run's to_json_dict() and jsonify
    return fresh copies."""

    __slots__ = ()

    @property
    def unexpected(self) -> bool:
        """A failure with no documented reason."""
        return self.status == FAILS and self.reason is None


def _member(value, k: int, r: int, j: int) -> SquareMatrix:
    """The level-r member at index j of the order-k family over the terms
    value(i), as its class table (builders._member_table) with column v
    scaled by w[v], the number of positions of digit sum v.  With
    W = diag(w), a product of members has the table a W b, so its scaled
    table a W b W is the product of the scaled tables; sums and integer
    multiples carry over entrywise, and as every w[v] >= 1, two tables are
    equal exactly when their members are.  At r = 1 the table is the
    dense member."""
    w = _digit_sums(k, r)[1]
    flat = chain.from_iterable(map(mul, row, w) for row in _member_table(value, k, r, j))
    return SquareMatrix._of(tuple(flat), len(w))


class _Terms(tuple):
    """An integer combination of level-R members plus c*I, as the tuple
    (S(0), ..., S(2D), c), D = R(k-1), for the matrix whose entry (R, C)
    is S(ds(R) + ds(C)) + c*[R == C]; +, - and integer * act entrywise.
    For D >= 2, I is no Hankel form, so equal matrices have equal tuples;
    at D = 1, I is the Hankel form of (1, 0, 1) (_cut folds c in)."""

    __slots__ = ()

    def __add__(self, other):
        return _Terms(map(add, self, other))

    def __sub__(self, other):
        return _Terms(map(sub, self, other))

    def __mul__(self, c):
        if type(c) is not int:
            return NotImplemented
        return _Terms(map(c.__mul__, self))

    __rmul__ = __mul__


def _units(like):
    """(I, J), the identity and the all-ones matrix, of like's kind."""
    if isinstance(like, SquareMatrix):
        return identity(like.dim), SquareMatrix._of((1,) * like.dim**2, like.dim)
    width = len(like) - 1
    return _Terms((0,) * width + (1,)), _Terms((1,) * width + (0,))


def _cut(steps, k: int, top: int, r: int):
    """steps on level-top vectors, each vector side cut to level r, a
    _Terms of its middle 2r(k-1) + 1 entries and c, folded into them at
    r(k-1) = 1."""
    lo, hi = (top - r) * (k - 1), (top + r) * (k - 1) + 1
    fold = hi - lo == 3
    for index, *sides in steps:
        for n, side in enumerate(sides):
            if type(side) is _Terms:
                cut, c = side[lo:hi], side[-1]
                sides[n] = _Terms((cut[0] + c, cut[1], cut[2] + c, 0) if fold and c else cut + (c,))
        yield (index, *sides)


def _hankel(side):
    """A 2x2 matrix [[a, b], [b, d]] as _cut's value _Terms((a, b, d, 0));
    any other side as it is."""
    if isinstance(side, SquareMatrix):
        (a, b), (b2, d) = side.rows
        return _Terms((a, b, d, 0)) if b == b2 else side
    return side


def _classes(m: SquareMatrix, k: int, r: int):
    """(ds, w) of the classes m is over: the digit sums of a scaled table
    (dimension r(k-1)+1, below k^r for r >= 2), or single positions (w all
    1) for a dense matrix of dimension k^r."""
    n = m.dim
    return (range(n), (1,) * n) if n == k**r else _digit_sums(k, r)


def _entries(m: SquareMatrix, k: int, r: int, cell=int, row=tuple):
    """Rows of the dense level-r matrix of order k that m stands for, a
    scaled table or a dense matrix: m unscaled and passed through cell once
    per pair of classes, then spread by class, so that rows of one class
    are one tuple, or one list with row=list."""
    ds, w = _classes(m, k, r)
    return _spread([list(map(cell, map(floordiv, row_, w))) for row_ in m.rows], ds, row)


def _text(values):
    """str if all values lie inside +-10^LEAF_DIGITS, else decimal_text."""
    return str if _LOW < min(values) and max(values) < _HIGH else decimal_text


def _serialize(value, k: int, r: int):
    """One side's report payload: decimal text, or the JSON form
    (matrix.to_json_dict's) of the dense matrix that a level's vector, a
    table or a matrix stands for, from one text per value; rows of equal
    digit sum are one shared list, except where c puts S(2u) + c on the
    diagonal."""
    if isinstance(value, int):
        return decimal_text(value)
    if isinstance(value, SquareMatrix):
        rows = _entries(value, k, r, _text(value._flat), list)
        return {"dim": len(rows), "entries": rows}
    S, c = value[:-1], value[-1]
    D = r * (k - 1)
    ds = _digit_sums(k, r)[0]
    texts = list(map(_text(S), S))
    rows = _spread([texts[u : u + D + 1] for u in range(D + 1)], ds, list)
    if c:
        diagonal = [S[2 * u] + c for u in range(D + 1)]
        texts = list(map(_text(diagonal), diagonal))
        rows = list(map(list, rows))
        for R, u in enumerate(ds):
            rows[R][R] = texts[u]
    return {"dim": len(rows), "entries": rows}


def _case(checker: str, params: dict, lhs, rhs, corrected=None, status_if_equal=HOLDS) -> CheckCase:
    """Compare the cataloged sides; a failing case whose lhs matches the
    corrected side holds-corrected, any other is classified here, once."""
    if lhs == rhs:
        return CheckCase(checker, params, status_if_equal)
    k, r = params["k"], params["r"]
    counterexample = {"params": dict(params), "lhs": _serialize(lhs, k, r), "rhs": _serialize(rhs, k, r)}
    if corrected is not None and lhs == corrected:
        return CheckCase(checker, params, HOLDS_CORRECTED, counterexample)
    return CheckCase(checker, params, FAILS, counterexample, expected_reason(checker, params))


CHECKERS = {}


def _checker(order: int | None = None, min_r: int = 0, vectors: str | None = None):
    """Register the case generator check_<id>(p, X, L) as checker <id>.

    X and L are the level's evaluators.  The generator yields
    (index params, lhs, rhs[, corrected[, status-if-equal]]) per case, or
    (index params,) for a skipped case, in _case_sort_key order:
    iter_suite merges the streams of the (k, r) pairs as they come and
    raises on a case out of that order.  A linear checker, with `vectors`
    set, runs at r >= 1 on term vectors, one run per "order" or "level"
    (_View); any other runs per level on class tables.  At k = 2, r = 1, where every member is a companion
    power, X(j) = Q^j and L(j) = Q^(j+1) + Q^(j-1), the generator also runs
    on those in lockstep, and the first disagreement raises as a library
    defect.  The registered checker rejects parameters outside its domain
    (order `order` only, when given; levels r >= min_r) and returns the
    SuiteResult of a suite run of its own.  `order`, `min_r` and `vectors`
    stay on the checker, where iter_suite reads its grid from, and
    `stream(p)` yields the cases of p, a CheckerParams or a _View, one by
    one, with k and r added to every case's params.
    """

    def register(cases_of):
        checker_id = cases_of.__name__.removeprefix("check_")

        def stream(p):
            if isinstance(p, CheckerParams) and vectors and p.r:
                p = _View([p], 0, [])
            if isinstance(p, _View):
                cases, p = _view_steps(cases_of, p), p.levels[p.i]
            else:
                cases = cases_of(p, *_level(p))
            k, r = p.k, p.r
            if (k, r) == (2, 1):
                shadow = cases_of(p, _q_power, lambda i: _q_power(i + 1) + _q_power(i - 1))
                cases = _lockstep(cases, shadow, vectors)
            for index, *sides in cases:
                params = {"k": k, "r": r, **index}
                yield _case(checker_id, params, *sides) if sides else CheckCase(checker_id, params, SKIPPED)

        @functools.wraps(cases_of)
        def check(p: CheckerParams) -> SuiteResult:
            if order is not None and p.k != order:
                raise ValueError(f"{checker_id} is defined for order {order} only, got k={p.k}")
            if p.r < min_r:
                raise ValueError(f"{checker_id} has no scalar form; use r >= {min_r}")
            return SuiteResult(checker_id, p._asdict(), _in_report_order([(stream, [p])]))

        check.order = order
        check.min_r = min_r
        check.vectors = vectors
        check.stream = stream
        CHECKERS[checker_id] = check
        return check

    return register


# Members, or term vectors, that one suite run keeps, shared by all its
# checkers: a default-grid run reads 257 distinct members and 282 vectors
# and builds each once.  The bound caps deep grids' memory and holds the
# window of about k*m_max values that a checker's streams read while
# iter_suite steps them together.
MEMBER_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=MEMBER_CACHE_SIZE)
def _members(family: str, k: int, r: int, j: int) -> SquareMatrix:
    """_member of family "F" (order-k terms) or "L" (Lucas terms, k = 2)."""
    return _member(lucas_term if family == "L" else functools.partial(term, k), k, r, j)


@functools.lru_cache(maxsize=MEMBER_CACHE_SIZE)
def _vectors(family: str, k: int, D: int, j: int) -> _Terms:
    """Member j of width D, family "F" or "L" as in _members: the terms
    s(j + D - d) for d = 0..2D, and c = 0."""
    terms = _lucas.term_range(j - D, j + D) if family == "L" else term_range(k, j - D, j + D)
    terms.reverse()
    terms.append(0)
    return _Terms(terms)


def _level(p: CheckerParams):
    """X, the level's terms or cached F members, and L, the Lucas ones at order 2 or None."""
    if p.r == 0:
        return functools.partial(term, p.k), lucas_term if p.k == 2 else None
    L = functools.partial(_members, "L", 2, p.r) if p.k == 2 else None
    return functools.partial(_members, "F", p.k, p.r), L


# level i of one run for levels, CheckerParams of one order; the run's
# views share copies
_View = namedtuple("_View", "levels i copies")


def _view_steps(cases_of, view: _View):
    """The steps of view's level, cut from the run of cases_of on the term
    vectors of the top level, which its first view read starts, copied per
    level by tee (a level ahead leaves the others its steps)."""
    top = max(view.levels)
    if not view.copies:
        D = top.r * (top.k - 1)
        L = functools.partial(_vectors, "L", 2, D) if top.k == 2 else None
        view.copies.extend(tee(cases_of(top, functools.partial(_vectors, "F", top.k, D), L), len(view.levels)))
    return _cut(view.copies[view.i], top.k, top.r, view.levels[view.i].r)


def _views(checker, params: list) -> list:
    """params, a linear checker's levels r >= 1 made views of one run per
    order, or per level for lucas_pair, whose cases sort part before r."""
    if not checker.vectors:
        return params
    runs = {}
    for p in params:
        if p.r:
            runs.setdefault(p.k if checker.vectors == "order" else p, []).append(p)
    views = {}
    for levels in runs.values():
        copies = []
        views.update((p, _View(levels, i, copies)) for i, p in enumerate(levels))
    return [views.get(p, p) for p in params]


_Q = SquareMatrix([[1, 1], [1, 0]])
_Q_INV = SquareMatrix([[0, 1], [1, -1]])  # exact integer inverse of _Q


# powers of _Q kept by exponent; emptied when it holds CACHE_SIZE
_Q_POWERS: dict[int, SquareMatrix] = {}


def _q_power(j: int) -> SquareMatrix:
    """Q^j: one product by _Q or _Q_INV from a kept Q^(j-1) or Q^(j+1),
    else _Q or _Q_INV raised by repeated squaring."""
    power = _Q_POWERS.get(j)
    if power is None:
        if j - 1 in _Q_POWERS:
            power = _Q_POWERS[j - 1] * _Q
        elif j + 1 in _Q_POWERS:
            power = _Q_POWERS[j + 1] * _Q_INV
        else:
            power = _Q**j if j >= 0 else _Q_INV ** (-j)
        if len(_Q_POWERS) >= CACHE_SIZE:
            _Q_POWERS.clear()
        _Q_POWERS[j] = power
    return power


def _lockstep(cases, shadow, vectors=None):
    """cases, each checked against the shadow's case of the same place,
    whose matrix sides are read by _hankel for a linear checker."""
    for case, check in zip(cases, shadow):
        if vectors:
            check = (check[0], *map(_hankel, check[1:]))
        if check != case:
            raise RuntimeError(
                "companion-power oracle disagrees with the matrix builders; "
                "this is a library defect, not an identity failure"
            )
        yield case


# ---------------------------------------------------------------------------
# general checkers (any order k)


@_checker(vectors="order")
def check_sum_formula(p: CheckerParams, X, L):
    """(k-1) * sum of the first n terms against its closed difference form.
    Equality makes the closed form entrywise divisible by k-1."""
    zero = 0 * X(0)  # of X's kind: an int or a matrix
    k = p.k
    running = zero
    for n in range(1, p.n_max + 1):
        running = running + X(n - 1)
        rhs = X(n + k - 1) - X(k - 1)
        for i in range(1, k - 1):
            rhs = rhs - i * X(n + k - 2 - i)
        yield {"n": n}, (k - 1) * running, rhs


@_checker(vectors="order")
def check_double_shift(p: CheckerParams, X, L):
    """X(j+k-1) == 2*X(j+k-2) - X(j-2) at every integer j in the grid."""
    k = p.k
    for j in range(p.j_min, p.j_max + 1):
        yield {"j": j}, X(j + k - 1), 2 * X(j + k - 2) - X(j - 2)


@_checker(vectors="order")
def check_geometric(p: CheckerParams, X, L):
    """Scaled geometric sum: sum of 2^(n-j) * X(j-1) for j = 1..n against
    2^n * C - X(k+n).

    Scalar form: C = 1.  At matrix levels the literal constant is
    ambiguous, so three readings run side by side: C = identity,
    C = all-ones, and the corrected C = X(k) (the family member whose
    scalar counterpart is exactly 1).  The corrected reading reports
    holds-corrected.
    """
    zero = 0 * X(0)
    k = p.k
    running = zero
    if p.r:
        unit, ones = _units(zero)
    for n in range(1, p.n_max + 1):
        running = 2 * running + X(n - 1)
        if p.r == 0:
            yield {"n": n}, running, 2**n - X(k + n)
            continue
        yield {"n": n, "reading": "corrected"}, running, (2**n) * X(k) - X(k + n), None, HOLDS_CORRECTED
        yield {"n": n, "reading": "literal-identity"}, running, (2**n) * unit - X(k + n), None, HOLDS
        yield {"n": n, "reading": "literal-ones"}, running, (2**n) * ones - X(k + n), None, HOLDS


@_checker(vectors="order")
def check_strided_sum(p: CheckerParams, X, L):
    """Stride-k sum: sum of X(k*n + j + 1) for n = 0..m against the block
    of consecutive terms X(j-n) for n = -mk..k-1."""
    k = p.k
    for j in range(0, p.j_max + 1):
        lhs = X(j + 1)
        rhs = X(j - (k - 1))
        for n in range(k - 2, -1, -1):
            rhs = rhs + X(j - n)
        yield {"j": j, "m": 0}, lhs, rhs
        for m in range(1, p.m_max + 1):
            lhs = lhs + X(k * m + j + 1)
            for t in range((m - 1) * k + 1, m * k + 1):
                rhs = rhs + X(j + t)
            yield {"j": j, "m": m}, lhs, rhs


@_checker(vectors="order")
def check_k_stride(p: CheckerParams, X, L):
    """Sum of X(k*n) for n = 1..m against the tail sum of X(k-1-n) over
    n = k*(1-m)..k-1."""
    zero = 0 * X(0)
    k = p.k
    lhs = zero
    rhs = zero
    for m in range(1, p.m_max + 1):
        lhs = lhs + X(k * m)
        for t in range((m - 1) * k, m * k):
            rhs = rhs + X(t)
        yield {"m": m}, lhs, rhs


@_checker(vectors="order")
def check_congruence_sum(p: CheckerParams, X, L):
    """X(k*m) - X(0) against the tail sum restricted to offsets n with
    n not congruent to 0 modulo k-1."""
    zero = 0 * X(0)
    k = p.k
    for m in range(1, p.m_max + 1):
        lhs = X(k * m) - X(0)
        rhs = zero
        for n in range(k * (1 - m), k):
            if n % (k - 1) != 0:
                rhs = rhs + X(k - 1 - n)
        yield {"m": m}, lhs, rhs


@_checker()
def check_square_convolution(p: CheckerParams, X, L):
    """Sum of X(j)^2 for j = 0..n against X(n+1)*X(n) minus the lagged
    convolution sums, products taken in the stated order."""
    zero = 0 * X(0)
    k = p.k
    sq_sum = zero
    tails = {j: zero for j in range(2, k)}
    for n in range(0, p.n_max + 1):
        xn = X(n)
        sq_sum = sq_sum + xn * xn
        for j in tails:
            tails[j] = tails[j] + xn * X(n - j)
        rhs = X(n + 1) * xn
        for j in tails:
            rhs = rhs - tails[j]
        yield {"n": n}, sq_sum, rhs


@_checker(vectors="order")
def check_power_expansion(p: CheckerParams, X, L):
    """X(j+n) expanded as 2^n times a short back sum plus weighted terms,
    valid for 1 <= n <= k-1; out-of-range n is reported as skipped."""
    zero = 0 * X(0)
    k = p.k
    for j in range(p.j_min, p.j_max + 1):
        for n in range(1, min(p.n_max, k - 1) + 1):
            back = zero
            for i in range(1, k - n + 1):
                back = back + X(j - i)
            rhs = (2**n) * back
            for i in range(0, n):
                rhs = rhs + (2**n - 2**i) * X(j - k + n - 1 - i)
            yield {"n": n, "j": j}, X(j + n), rhs
    # a skipped case has no j, so it sorts after the others
    if p.n_max >= k:
        yield ({"n": k, "note": "requires 1 <= n <= k-1"},)


@_checker(min_r=1)
def check_q_power(p: CheckerParams, X, L):
    """Direct level-r construction against the companion-power path for
    j = 1..j_max.  Matrix levels only."""
    for j in range(1, p.j_max + 1):
        yield {"j": j}, build_higher(p.k, p.r, j), fast_f(p.k, p.r, j)


# ---------------------------------------------------------------------------
# order-2 checkers (Fibonacci/Lucas pair)


def _scaled(r: int, F, L, i: int):
    """The parity-scaled order-2 target of level r: 5^(r/2)*F(i) at even
    r, 5^((r-1)/2)*L(i) at odd r, so F(i) itself at r = 0."""
    return 5 ** (r // 2) * (L(i) if r % 2 else F(i))


@_checker(order=2, vectors="level")
def check_lucas_pair(p: CheckerParams, F, L):
    """Two linear pair identities: L(s) + L(s+2) against 5*F(s+1), and
    F(s) + F(s+2) against L(s+1)."""
    for s in range(p.j_min, p.j_max + 1):
        yield {"s": s, "part": "fib-sum"}, F(s) + F(s + 2), L(s + 1)
    for s in range(p.j_min, p.j_max + 1):
        yield {"s": s, "part": "lucas-sum"}, L(s) + L(s + 2), 5 * F(s + 1)


@_checker(order=2)
def check_addition_formula(p: CheckerParams, F, L):
    """Index addition: F(m-1)*F(n) + F(m)*F(n+1) against the scaled
    target, 5^(r/2)*F(m+n) at even levels and 5^((r-1)/2)*L(m+n) at odd
    levels; the scalar form targets F(m+n) itself."""
    for m in range(p.j_min, p.j_max + 1):
        for n in range(p.j_min, p.j_max + 1):
            yield {"m": m, "n": n}, _scaled(p.r, F, L, m + n), F(m - 1) * F(n) + F(m) * F(n + 1)


@_checker(order=2, vectors="order")
def check_fl_double(p: CheckerParams, F, L):
    """F(n) + L(n) against 2*F(n+1)."""
    for n in range(p.j_min, p.j_max + 1):
        yield {"n": n}, F(n) + L(n), 2 * F(n + 1)


@_checker(order=2)
def check_square_sum(p: CheckerParams, F, L):
    """F(n+1)^2 + F(n)^2 against the scaled odd-index target:
    F(2n+1) at the scalar level, 5^(r/2)*F(2n+1) at even levels,
    5^((r-1)/2)*L(2n+1) at odd levels."""
    for n in range(p.j_min, p.j_max + 1):
        yield {"n": n}, F(n + 1) * F(n + 1) + F(n) * F(n), _scaled(p.r, F, L, 2 * n + 1)


@_checker(order=2)
def check_square_diff(p: CheckerParams, F, L):
    """F(n+1)^2 - F(n)^2 against its cataloged target.

    Scalar: F(n+2)*F(n-1).  Odd levels: 5^((r-1)/2)*F(2n+1).  Even
    levels: cataloged as 5^(r/2)*L(2n+1), which overstates the scale by
    one factor of five; when the cataloged form fails but
    5^((r-2)/2)*L(2n+1) verifies, the case reports holds-corrected with
    the cataloged sides as the counterexample payload.
    """
    for n in range(p.j_min, p.j_max + 1):
        diff = F(n + 1) * F(n + 1) - F(n) * F(n)
        if p.r == 0:
            yield {"n": n}, diff, F(n + 2) * F(n - 1)
            continue
        # at odd levels the corrected target is the cataloged one
        corrected = _scaled(p.r - 1, F, L, 2 * n + 1)
        stated = corrected if p.r % 2 else _scaled(p.r + 1, F, L, 2 * n + 1)
        yield {"n": n}, diff, stated, corrected


@_checker(order=2)
def check_square_series(p: CheckerParams, F, L):
    """Sum of F(i)^2 for i = 1..n against the closed form: F(n)*F(n+1) at
    the scalar level, 5^((r-1)/2)*(F(2n+1) - F(1)) at odd levels, and
    5^((r-2)/2)*(L(2n+1) - L(1)) at even levels."""
    zero = 0 * F(1)  # of F's kind: an int, a matrix or a class table
    running = zero
    for n in range(1, p.n_max + 1):
        total = zero
        for i in range(1, n + 1):
            total = total + F(i) * F(i)
        running = running + F(n) * F(n)
        if total != running:
            raise RuntimeError("incremental square series disagrees with direct sum")
        if p.r == 0:
            rhs = F(n) * F(n + 1)
        else:
            rhs = _scaled(p.r - 1, F, L, 2 * n + 1) - _scaled(p.r - 1, F, L, 1)
        yield {"n": n}, total, rhs


CHECKER_IDS = tuple(CHECKERS)


# ---------------------------------------------------------------------------
# suite driver


class SuiteGrid(
    namedtuple(
        "SuiteGrid",
        "max_k max_r n_max m_max j_min j_max dim_cap extra_fib_level",
        defaults=(4, 2, 12, 12, -6, 12, 27, 3),
    )
):
    """Suite-level parameter grid, all ints (extra_fib_level may be None),
    checked when the record is made.

    Matrix levels run for r = 1..max_r wherever k^r stays within
    dim_cap; the order-2 family additionally runs at extra_fib_level.
    Scalar forms always run at r = 0.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_int("max_k", self.max_k, 2)
        _require_int("max_r", self.max_r, 1)
        _check_bounds(self)
        _require_int("dim_cap", self.dim_cap, None)
        if self.extra_fib_level is not None:
            _require_int("extra_fib_level", self.extra_fib_level, 1)
        return self

    def k_values(self) -> tuple[int, ...]:
        return tuple(range(2, self.max_k + 1))

    def matrix_levels(self, k: int) -> tuple[int, ...]:
        levels = []
        dim = k
        while len(levels) < self.max_r and dim <= self.dim_cap:
            levels.append(len(levels) + 1)
            dim *= k
        extra = self.extra_fib_level
        # 2**extra <= dim_cap, tested without computing 2**extra
        fits = extra is not None and 0 < self.dim_cap and extra < self.dim_cap.bit_length()
        if k == 2 and fits and extra not in levels:
            levels.append(extra)
        return tuple(levels)


def jsonify(value):
    """Recursively turn integers into decimal strings and tuples and
    generators into lists; booleans, None and strings pass through, and a
    function stands for the value it returns, as in json_chunks."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return decimal_text(value)
    if isinstance(value, dict):
        return {key: jsonify(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, GeneratorType)):
        return [jsonify(v) for v in value]
    if callable(value):
        return jsonify(value())
    raise TypeError(f"cannot serialize {value!r}")


def json_chunks(value, quote_ints: bool = True):
    """Yield the text of json.dumps(jsonify(value), indent=2,
    sort_keys=True) in chunks, without building jsonify's copy.

    jsonify's rules hold: ints become decimal strings, tuples become
    lists, and None, booleans and strings pass through.  quote_ints=False
    writes ints as JSON numbers instead.  Finite floats are written as
    float.__repr__ writes them.  A function stands for the value it
    returns, called when that value is written, after the keys that sort
    before it.  Dictionary keys must be strings.

    A plain JSON writer: the top-level value, and a list, tuple or
    generator directly in it, are written one item per chunk; each item
    below is one chunk, joined once from its pieces (_write).  A row of
    strings is one join, and a dict of scalars one %-format of the cached
    template of its keys (_template).  A suite report's cases are written
    by SuiteRun.json_chunks itself.
    """
    return _chunks(value, "\n", quote_ints, True)


def _scalar_json(value, quote_ints: bool) -> str | None:
    """JSON text of a scalar, or None for anything else."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return f'"{decimal_text(value)}"' if quote_ints else decimal_text(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize {value!r}")
        return float.__repr__(value)
    return None


def _container(value):
    """The brackets of a dict, list, tuple or generator and its (head,
    item) pairs in the order they are written; None for any other value."""
    if isinstance(value, dict):
        return "{}", ((_quote(key) + ": ", value[key]) for key in _sorted_names(tuple(value)))
    if isinstance(value, (list, tuple, GeneratorType)):
        return "[]", zip(repeat(""), value)
    return None


def _chunks(value, newline: str, quote_ints: bool, top: bool):
    """json_chunks at the nesting level whose closing bracket follows
    newline; top streams a list, tuple or generator item the same way."""
    container = _container(value)
    if container is None:
        yield _joined(value, newline, quote_ints)
        return
    brackets, items = container
    inner = newline + "  "
    opening = brackets[0] + inner
    for head, item in items:
        if top and isinstance(item, (list, tuple, GeneratorType)):
            yield opening + head
            yield from _chunks(item, inner, quote_ints, False)
        else:
            out = [opening + head]
            _write(item, inner, quote_ints, out)
            yield "".join(out)
        opening = "," + inner
    yield brackets if opening[0] != "," else newline + brackets[1]


# the most shapes that each shape cache keeps: a report of the default or
# the dense grid has 21 case shapes (_case_template), 16 of them without a
# counterexample, and reads 4 shapes from _template and 12 from _sorted_names
SHAPE_CACHE_SIZE = 128
_SCALARS = frozenset({str, int, bool, float, type(None)})


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _template(names: tuple, newline: str) -> tuple:
    """The %-format template of a dict with keys names, and its keys in the
    order they fill it."""
    keys = _sorted_names(names)
    if not keys:
        return "{}", keys
    inner = newline + "  "
    body = ("," + inner).join(_quote(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + body + newline + "}", keys


def _filled(value: dict, newline: str, quote_ints: bool) -> str | None:
    """_template's text of value, filled with the texts of its values;
    None if one of them is not a str, int, bool, float or None."""
    if not _SCALARS.issuperset(map(type, value.values())):
        return None
    template, keys = _template(tuple(value), newline)
    return template % tuple(_scalar_json(value[key], quote_ints) for key in keys)


# the characters of ASCII text that _quote escapes
_ESCAPED = bytes(range(32)) + b'"\\\x7f'


def _row(row, newline: str) -> str | None:
    """The text of a nonempty list or tuple of strings from one join of
    its items, or None if an item is not a string."""
    inner = newline + "  "
    try:
        body = ('",' + inner + '"').join(row)
    except TypeError:
        return None
    # _quote escapes 3 characters of each separator; more, or non-ASCII, are an item's
    if not body.isascii() or len(body) - len(body.encode().translate(None, _ESCAPED)) != 3 * len(row) - 3:
        return f"[{inner}{(',' + inner).join(map(_quote, row))}{newline}]"
    return f'[{inner}"{body}"{newline}]'


def _write(value, newline: str, quote_ints: bool, out: list) -> None:
    """Append json_chunks' text of value, at the nesting level whose
    closing bracket follows newline, to out: a scalar, a row of strings or
    a dict of scalars as one string, any other value piece by piece, so
    that no piece is copied before the chunk is joined."""
    kind = type(value)
    if kind is dict:
        text = _filled(value, newline, quote_ints)
    elif kind is list or kind is tuple:
        text = _row(value, newline) if value and isinstance(value[0], str) else None
    else:
        text = _scalar_json(value, quote_ints)
    if text:
        out.append(text)
        return
    container = _container(value)
    if container is None:
        if not callable(value):
            raise TypeError(f"cannot serialize {value!r}")
        _write(value(), newline, quote_ints, out)
        return
    brackets, items = container
    inner = newline + "  "
    opening = brackets[0] + inner
    for head, item in items:
        out.append(opening + head)
        _write(item, inner, quote_ints, out)
        opening = "," + inner
    out.append(brackets if opening[0] != "," else newline + brackets[1])


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _sorted_names(names: tuple) -> tuple:
    return tuple(sorted(names))


# SuiteRun's report writes its cases itself, each at the nesting level of
# the report's "cases" list: a case's closing brace follows _CASE
_CASE = "\n    "
_CX_HEAD = "{" + _CASE + '  "counterexample": '
_TABLE_KEYS = frozenset({"dim", "entries"})


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _case_template(checker: str, status: str, names: tuple, types: tuple, failing: bool):
    """The %-format template of a report case of one shape, the keys of its
    params in the order they fill it and the places of the values that are
    not ints; None if a value's type is not an exact scalar type.  An int
    fills a quoted slot; any other value, by _scalar_json, a bare one.  A
    failing case's template starts after its counterexample."""
    if not _SCALARS.issuperset(types):
        return None
    inner, deeper = _CASE + "  ", _CASE + "    "
    kinds = dict(zip(names, types))
    keys = _sorted_names(names)
    fields = [_quote(key).replace("%", "%%") + (': "%s"' if kinds[key] is int else ": %s") for key in keys]
    params = "{" + deeper + ("," + deeper).join(fields) + inner + "}" if keys else "{}"
    checker, status = (_quote(text).replace("%", "%%") for text in (checker, status))
    tail = f',{inner}"id": {checker},{inner}"params": {params},{inner}"status": {status}{_CASE}}}'
    others = tuple(i for i, key in enumerate(keys) if kinds[key] is not int)
    return (tail if failing else _CX_HEAD + "null" + tail), keys, others


def _joined(value, newline: str, quote_ints: bool = True) -> str:
    """_write's text of value, joined."""
    out = []
    _write(value, newline, quote_ints, out)
    return "".join(out)


def _counterexample(value, out: list) -> None:
    """Append a failing case's counterexample to out: a dict key by key, in
    which a payload table {"dim", "entries"} writes each distinct row
    object once, found by id, and spreads its text back over the rows; any
    other value by _write."""
    if type(value) is not dict or not value:
        return _write(value, _CASE + "  ", True, out)
    inner, deeper = _CASE + "    ", _CASE + "      "
    row_newline = deeper + "  "
    opening = "{" + inner
    for key in _sorted_names(tuple(value)):
        out.append(opening + _quote(key) + ": ")
        part = value[key]
        rows = part["entries"] if type(part) is dict and part.keys() == _TABLE_KEYS else None
        if type(rows) is list and rows:
            texts = {i: _joined(row, row_newline) for i, row in dict(zip(map(id, rows), rows)).items()}
            out += ("{" + deeper + '"dim": ', _joined(part["dim"], deeper), "," + deeper + '"entries": [' + row_newline)
            out += chain.from_iterable(zip(map(texts.__getitem__, map(id, rows)), repeat("," + row_newline)))
            out[-1] = deeper + "]" + inner + "}"
        else:
            _write(part, inner, True, out)
        opening = "," + inner
    out.append(_CASE + "  }")


def _case_text(case: CheckCase, opening: str) -> str:
    """opening and the text of a report case, as json_chunks writes its
    dict in SuiteRun's "cases" list: its shape's template filled with one
    %, after the counterexample's pieces for a failing case, and those
    pieces joined once.  A case of any other shape goes through _write."""
    checker, params, status, counterexample = case[:4]
    shape = None
    if type(params) is dict and type(checker) is str and type(status) is str:
        types = tuple(map(type, params.values()))
        shape = _case_template(checker, status, tuple(params), types, counterexample is not None)
    if shape is None:
        value = {"counterexample": counterexample, "id": checker, "params": params, "status": status}
        return opening + _joined(value, _CASE)
    template, keys, others = shape
    values = [*map(params.__getitem__, keys)]
    for i in others:
        values[i] = _scalar_json(values[i], True)
    try:
        text = template % tuple(values)
    except ValueError:  # an int past the interpreter's int-to-text digit limit
        text = template % tuple(decimal_text(v) if type(v) is int else v for v in values)
    if counterexample is None:
        return opening + text
    out = [opening, _CX_HEAD]
    _counterexample(counterexample, out)
    out.append(text)
    return "".join(out)


def _case_sort_key(c: CheckCase) -> tuple:
    """The case's place in report order: its checker id, then for each
    param by name, the name, 0 and an int value (bools excluded), or the
    name, 1 and the value's str.  Each shape of params reads its sorted
    names from a cache; the key is one flat tuple."""
    params = c.params
    key = [c.checker]
    for name in _sorted_names(tuple(params)):
        v = params[name]
        key += (name, 0, v) if isinstance(v, int) and v is not True and v is not False else (name, 1, str(v))
    return tuple(key)


def _combos(checker, grid: SuiteGrid):
    """(k, r) pairs of the grid inside the checker's registered domain."""
    ks = grid.k_values() if checker.order is None else (checker.order,)
    return [(k, r) for k in ks for r in (0, *grid.matrix_levels(k)) if r >= checker.min_r]


def resolve_selection(selection) -> tuple[str, ...]:
    """Normalize a checker selection to canonical order; None or 'all'
    selects every checker."""
    if selection is None or selection == "all":
        return CHECKER_IDS
    ids = list(selection)
    unknown = [i for i in ids if i not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown checker ids: {', '.join(sorted(unknown))}")
    picked = set(ids)
    return tuple(i for i in CHECKER_IDS if i in picked)


def iter_suite(selection=None, grid: SuiteGrid | None = None):
    """The cases of the selected checkers over the grid in report order
    (by _case_sort_key), each made when it is asked for.

    The selection, the grid and every CheckerParams are checked here,
    before the first case is made.  Checkers run in id order, and each
    checker's per-(k, r) streams, each already in report order, are
    merged as they come (a linear checker's as _views).  A case that does not sort strictly after the
    one before it, out of order or a duplicate, is a library defect and
    raises.
    """
    grid = grid or SuiteGrid()
    bounds = (grid.n_max, grid.m_max, grid.j_min, grid.j_max)
    runs = []
    for checker_id in sorted(resolve_selection(selection)):
        checker = CHECKERS[checker_id]
        params = [CheckerParams(k, r, *bounds) for k, r in _combos(checker, grid)]
        runs.append((checker.stream, _views(checker, params)))
    return _in_report_order(runs)


def _keyed(cases, tiebreak: int):
    # the tiebreak keeps heapq.merge from comparing two cases of one key
    for case in cases:
        yield _case_sort_key(case), tiebreak, case


def _in_report_order(runs):
    """The cases of one suite run, which starts and ends with no member or
    vector cached, so that no run reads the values of another."""
    _members.cache_clear()
    _vectors.cache_clear()
    last = ()
    try:
        for stream, params in runs:
            for key, _, case in heapq.merge(*(_keyed(stream(p), n) for n, p in enumerate(params))):
                if key <= last:
                    raise RuntimeError(
                        f"{case.checker} case {case.params} does not sort after the case before it; "
                        "this is a library defect, not an identity failure"
                    )
                last = key
                yield case
    finally:
        _members.cache_clear()
        _vectors.cache_clear()


def _run_fields(selection, grid: SuiteGrid | None):
    """A run's suite name, grid, case stream and timestamp, checked before any case is made."""
    grid = grid or SuiteGrid()
    ids = resolve_selection(selection)
    suite = "all" if len(ids) == len(CHECKER_IDS) else ",".join(ids) or "none"
    return suite, grid._asdict(), iter_suite(ids, grid), time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


class SuiteRun:
    """One pass over a suite's cases: the report's fields, and the status
    counts and verdict of the cases read so far, each tallied once as it
    passes.  The report writes each case as it is made, the verdict last."""

    def __init__(self, selection=None, grid: SuiteGrid | None = None) -> None:
        self.suite, self.grid, cases, self.generated_at = _run_fields(selection, grid)
        self._cases = self._tally(cases)

    def _tally(self, cases):
        """cases, each counted into counts and unexpected as it is read."""
        self.counts = {HOLDS: 0, FAILS: 0, HOLDS_CORRECTED: 0, SKIPPED: 0}
        self.unexpected = 0
        return map(self._count, cases)

    def _count(self, case: CheckCase) -> CheckCase:
        self.counts[case.status] += 1
        self.unexpected += case.unexpected
        return case

    def __iter__(self):
        return iter(self._cases)

    @property
    def passed(self) -> bool:
        return not self.unexpected

    def _report(self, include_timestamp: bool) -> dict:
        """The report's fields but its cases, the verdict as a function."""
        report = {"suite": self.suite, "grid": self.grid, "pass": lambda: self.passed}
        if include_timestamp:
            report["generated_at"] = self.generated_at
        return report

    def to_json_dict(self, include_timestamp: bool = True) -> dict:
        cases = (
            {"id": c.checker, "params": c.params, "status": c.status, "counterexample": c.counterexample} for c in self
        )
        # jsonify reads the cases first, so the verdict is read after them
        return jsonify({"cases": cases, **self._report(include_timestamp)})

    def json_chunks(self, include_timestamp: bool = True):
        """The text of to_json in chunks: one per case, written straight
        from the CheckCase (_case_text), then the report's other fields as
        json_chunks writes them, the verdict once the cases are read."""
        first = opening = '{\n  "cases": [' + _CASE
        for case in self:
            yield _case_text(case, opening)
            opening = "," + _CASE
        fields = json_chunks(self._report(include_timestamp))
        # "cases" sorts first: the fields' own opening brace gives way to it
        yield ('{\n  "cases": [],' if opening is first else "\n  ],") + next(fields)[1:]
        yield from fields

    def to_json(self, include_timestamp: bool = True) -> str:
        """The report as json.dumps(to_json_dict(...), indent=2,
        sort_keys=True) writes it, gathered in one buffer chunk by chunk,
        so that no chunk outlives its own write."""
        text = bytearray()
        for chunk in self.json_chunks(include_timestamp):
            text += chunk.encode()
        return text.decode()


class SuiteResult(SuiteRun):
    """A collected run: the cases of one checker run (suite is the checker
    id, grid its CheckerParams) or of a run_suite call, drained once
    through the run's tally.  Equality compares suite, grid and cases;
    a result is unhashable."""

    def __init__(self, suite: str, grid: dict, cases, generated_at: str = "") -> None:
        self.suite, self.grid, self.generated_at = suite, grid, generated_at
        self.cases = self._cases = tuple(self._tally(cases))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.grid, self.cases) == (other.suite, other.grid, other.cases)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(suite={self.suite!r}, grid={self.grid!r}, "
            f"cases={self.cases!r}, generated_at={self.generated_at!r})"
        )

    def unexpected_failures(self) -> list[CheckCase]:
        return [c for c in self.cases if c.unexpected]

    def status_counts(self) -> dict[str, int]:
        return dict(self.counts)


def run_suite(selection=None, grid: SuiteGrid | None = None) -> SuiteResult:
    """Run the selected checkers over the grid and collect all cases.  The
    result passes when no case fails unexpectedly: holds, holds-corrected,
    skipped and documented expected failures all count as success."""
    return SuiteResult(*_run_fields(selection, grid))
