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
same shape of identity on the level-r block family.  The order-2 matrix
family consists of companion-matrix powers, so every order-2 level-1
identity is re-evaluated through plain companion powers as an
independent second oracle; a disagreement there is a library defect and
raises instead of reporting.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from .builders import build_higher, build_lucas, fast_f
from .expectations import expected_reason
from .matrix import SquareMatrix, identity, to_json_dict, zeros
from .sequences import lucas_term, term

HOLDS = "holds"
FAILS = "fails"
HOLDS_CORRECTED = "holds-corrected"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckerParams:
    """Grid for one checker run: order k, level r, and index bounds.

    r = 0 selects the scalar form; r >= 1 selects the level-r matrix
    form.  Parity-scaled identities derive their exponent from r.
    """

    k: int = 2
    r: int = 0
    n_max: int = 12
    m_max: int = 12
    j_min: int = -6
    j_max: int = 12

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 2:
            raise ValueError(f"order must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 0:
            raise ValueError(f"level must be an integer >= 0, got {self.r!r}")
        if self.n_max < 1 or self.m_max < 1 or self.j_min > self.j_max:
            raise ValueError("empty parameter grid")

    @property
    def even_power(self) -> int:
        return self.r // 2

    @property
    def odd_power(self) -> int:
        return (self.r - 1) // 2


@dataclass(frozen=True)
class CheckCase:
    """Outcome of one identity instance.  A failing case carries the
    documented reason it is expected to fail, or None when it is not."""

    checker: str
    params: dict
    status: str
    counterexample: dict | None = None
    reason: str | None = None


class _Verdict:
    """Pass/fail verdict over the `cases` of a report or a suite result."""

    def unexpected_failures(self) -> list[CheckCase]:
        return [c for c in self.cases if c.status == FAILS and c.reason is None]

    @property
    def passed(self) -> bool:
        return not self.unexpected_failures()


@dataclass(frozen=True)
class VerificationReport(_Verdict):
    """All cases one checker produced for one parameter grid."""

    checker: str
    grid: dict
    cases: tuple[CheckCase, ...]


def _serialize(value):
    if isinstance(value, SquareMatrix):
        return to_json_dict(value)
    return str(value)


def _case(checker: str, params: dict, lhs, rhs, corrected=None, status_if_equal=HOLDS) -> CheckCase:
    """Compare the cataloged sides; a failing case whose lhs matches the
    corrected side holds-corrected, any other is classified here, once."""
    if lhs == rhs:
        return CheckCase(checker, params, status_if_equal)
    counterexample = {"params": dict(params), "lhs": _serialize(lhs), "rhs": _serialize(rhs)}
    if corrected is not None and lhs == corrected:
        return CheckCase(checker, params, HOLDS_CORRECTED, counterexample)
    return CheckCase(checker, params, FAILS, counterexample, expected_reason(checker, params))


CHECKERS = {}


def _checker(order: int | None = None, min_r: int = 0):
    """Register the case generator check_<id> as checker <id>.

    The generator yields (index params, lhs, rhs[, corrected[,
    status-if-equal]]) per case, or (index params,) for a skipped case.
    The registered checker rejects parameters outside its domain (order
    `order` only, when given; levels r >= min_r), adds k and r to every
    case's params and returns the VerificationReport.  `order` and
    `min_r` stay on the checker, where run_suite reads its grid from.
    """

    def register(cases_of):
        checker_id = cases_of.__name__.removeprefix("check_")

        @functools.wraps(cases_of)
        def check(p: CheckerParams) -> VerificationReport:
            if order is not None and p.k != order:
                raise ValueError(f"{checker_id} is defined for order {order} only, got k={p.k}")
            if p.r < min_r:
                raise ValueError(f"{checker_id} has no scalar form; use r >= {min_r}")
            cases = []
            for index, *sides in cases_of(p):
                params = {"k": p.k, "r": p.r, **index}
                if sides:
                    cases.append(_case(checker_id, params, *sides))
                else:
                    cases.append(CheckCase(checker_id, params, SKIPPED))
            return VerificationReport(checker_id, asdict(p), tuple(cases))

        check.order = order
        check.min_r = min_r
        CHECKERS[checker_id] = check
        return check

    return register


def _ones(dim: int) -> SquareMatrix:
    return SquareMatrix(tuple((1,) * dim for _ in range(dim)))


def _level(p: CheckerParams):
    """Element evaluator and zero for the selected level."""
    if p.r == 0:
        return (lambda i: term(p.k, i)), 0
    return (lambda i: build_higher(p.k, p.r, i)), zeros(p.k**p.r)


# ---------------------------------------------------------------------------
# general checkers (any order k)


@_checker()
def check_sum_formula(p: CheckerParams):
    """(k-1) * sum of the first n terms against its closed difference form.
    Equality makes the closed form entrywise divisible by k-1."""
    X, zero = _level(p)
    k = p.k
    running = zero
    for n in range(1, p.n_max + 1):
        running = running + X(n - 1)
        rhs = X(n + k - 1) - X(k - 1)
        for i in range(1, k - 1):
            rhs = rhs - i * X(n + k - 2 - i)
        yield {"n": n}, (k - 1) * running, rhs


@_checker()
def check_double_shift(p: CheckerParams):
    """X(j+k-1) == 2*X(j+k-2) - X(j-2) at every integer j in the grid."""
    X, _ = _level(p)
    k = p.k
    for j in range(p.j_min, p.j_max + 1):
        yield {"j": j}, X(j + k - 1), 2 * X(j + k - 2) - X(j - 2)


@_checker()
def check_geometric(p: CheckerParams):
    """Scaled geometric sum: sum of 2^(n-j) * X(j-1) for j = 1..n against
    2^n * C - X(k+n).

    Scalar form: C = 1.  At matrix levels the literal constant is
    ambiguous, so three readings run side by side: C = identity,
    C = all-ones, and the corrected C = X(k) (the family member whose
    scalar counterpart is exactly 1).  The corrected reading reports
    holds-corrected.
    """
    X, zero = _level(p)
    k = p.k
    running = zero
    for n in range(1, p.n_max + 1):
        running = 2 * running + X(n - 1)
        if p.r == 0:
            yield {"n": n}, running, 2**n - X(k + n)
            continue
        dim = p.k**p.r
        readings = (
            ("literal-identity", identity(dim), HOLDS),
            ("literal-ones", _ones(dim), HOLDS),
            ("corrected", X(k), HOLDS_CORRECTED),
        )
        for reading, constant, status in readings:
            rhs = (2**n) * constant - X(k + n)
            yield {"n": n, "reading": reading}, running, rhs, None, status


@_checker()
def check_strided_sum(p: CheckerParams):
    """Stride-k sum: sum of X(k*n + j + 1) for n = 0..m against the block
    of consecutive terms X(j-n) for n = -mk..k-1."""
    X, _ = _level(p)
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


@_checker()
def check_k_stride(p: CheckerParams):
    """Sum of X(k*n) for n = 1..m against the tail sum of X(k-1-n) over
    n = k*(1-m)..k-1."""
    X, zero = _level(p)
    k = p.k
    lhs = zero
    rhs = zero
    for m in range(1, p.m_max + 1):
        lhs = lhs + X(k * m)
        for t in range((m - 1) * k, m * k):
            rhs = rhs + X(t)
        yield {"m": m}, lhs, rhs


@_checker()
def check_congruence_sum(p: CheckerParams):
    """X(k*m) - X(0) against the tail sum restricted to offsets n with
    n not congruent to 0 modulo k-1."""
    X, zero = _level(p)
    k = p.k
    for m in range(1, p.m_max + 1):
        lhs = X(k * m) - X(0)
        rhs = zero
        for n in range(k * (1 - m), k):
            if n % (k - 1) != 0:
                rhs = rhs + X(k - 1 - n)
        yield {"m": m}, lhs, rhs


@_checker()
def check_square_convolution(p: CheckerParams):
    """Sum of X(j)^2 for j = 0..n against X(n+1)*X(n) minus the lagged
    convolution sums, products taken in the stated order."""
    X, zero = _level(p)
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


@_checker()
def check_power_expansion(p: CheckerParams):
    """X(j+n) expanded as 2^n times a short back sum plus weighted terms,
    valid for 1 <= n <= k-1; out-of-range n is reported as skipped."""
    X, zero = _level(p)
    k = p.k
    for n in range(1, min(p.n_max, k) + 1):
        if n > k - 1:
            yield ({"n": n, "note": "requires 1 <= n <= k-1"},)
            continue
        for j in range(p.j_min, p.j_max + 1):
            back = zero
            for i in range(1, k - n + 1):
                back = back + X(j - i)
            rhs = (2**n) * back
            for i in range(0, n):
                rhs = rhs + (2**n - 2**i) * X(j - k + n - 1 - i)
            yield {"n": n, "j": j}, X(j + n), rhs


@_checker(min_r=1)
def check_q_power(p: CheckerParams):
    """Direct level-r construction against the companion-power path for
    j = 1..j_max.  Matrix levels only."""
    for j in range(1, p.j_max + 1):
        yield {"j": j}, build_higher(p.k, p.r, j), fast_f(p.k, p.r, j)


# ---------------------------------------------------------------------------
# order-2 checkers (Fibonacci/Lucas pair)

_Q = SquareMatrix([[1, 1], [1, 0]])
_Q_INV = SquareMatrix([[0, 1], [1, -1]])  # exact integer inverse of _Q


def _q_power(j: int) -> SquareMatrix:
    return _Q**j if j >= 0 else _Q_INV ** (-j)


def _fib_evaluators(p: CheckerParams):
    """(F, L) at the requested order-2 level plus the companion-power
    shadow pair at level 1, or None when no independent oracle applies."""
    if p.r == 0:
        return (lambda i: term(2, i)), lucas_term, None, None
    F = lambda i: build_higher(2, p.r, i)
    L = lambda i: build_lucas(p.r, i)
    if p.r == 1:
        Fq = _q_power
        Lq = lambda i: _q_power(i + 1) + _q_power(i - 1)
        return F, L, Fq, Lq
    return F, L, None, None


def _evaluate_pair(p: CheckerParams, sides):
    """Evaluate sides(F, L) and, at level 1, revalidate through plain
    companion powers.  The two paths must agree exactly."""
    F, L, Fq, Lq = _fib_evaluators(p)
    main = sides(F, L)
    if Fq is not None:
        shadow = sides(Fq, Lq)
        if shadow != main:
            raise RuntimeError(
                "companion-power oracle disagrees with the matrix builders; "
                "this is a library defect, not an identity failure"
            )
    return main


@_checker(order=2)
def check_lucas_pair(p: CheckerParams):
    """Two linear pair identities: L(s) + L(s+2) against 5*F(s+1), and
    F(s) + F(s+2) against L(s+1)."""
    for s in range(p.j_min, p.j_max + 1):
        lucas_sum = _evaluate_pair(p, lambda F, L: (L(s) + L(s + 2), 5 * F(s + 1)))
        yield {"s": s, "part": "lucas-sum"}, *lucas_sum
        fib_sum = _evaluate_pair(p, lambda F, L: (F(s) + F(s + 2), L(s + 1)))
        yield {"s": s, "part": "fib-sum"}, *fib_sum


@_checker(order=2)
def check_addition_formula(p: CheckerParams):
    """Index addition: F(m-1)*F(n) + F(m)*F(n+1) against the scaled
    target, 5^(r/2)*F(m+n) at even levels and 5^((r-1)/2)*L(m+n) at odd
    levels; the scalar form targets F(m+n) itself."""
    for m in range(p.j_min, p.j_max + 1):
        for n in range(p.j_min, p.j_max + 1):

            def sides(F, L, m=m, n=n):
                products = F(m - 1) * F(n) + F(m) * F(n + 1)
                if p.r == 0:
                    return F(m + n), products
                if p.r % 2 == 0:
                    return (5**p.even_power) * F(m + n), products
                return (5**p.odd_power) * L(m + n), products

            yield {"m": m, "n": n}, *_evaluate_pair(p, sides)


@_checker(order=2)
def check_fl_double(p: CheckerParams):
    """F(n) + L(n) against 2*F(n+1)."""
    for n in range(p.j_min, p.j_max + 1):
        yield {"n": n}, *_evaluate_pair(p, lambda F, L: (F(n) + L(n), 2 * F(n + 1)))


@_checker(order=2)
def check_square_sum(p: CheckerParams):
    """F(n+1)^2 + F(n)^2 against the scaled odd-index target:
    F(2n+1) at the scalar level, 5^(r/2)*F(2n+1) at even levels,
    5^((r-1)/2)*L(2n+1) at odd levels."""
    for n in range(p.j_min, p.j_max + 1):

        def sides(F, L, n=n):
            squares = F(n + 1) * F(n + 1) + F(n) * F(n)
            if p.r == 0:
                return squares, F(2 * n + 1)
            if p.r % 2 == 0:
                return squares, (5**p.even_power) * F(2 * n + 1)
            return squares, (5**p.odd_power) * L(2 * n + 1)

        yield {"n": n}, *_evaluate_pair(p, sides)


@_checker(order=2)
def check_square_diff(p: CheckerParams):
    """F(n+1)^2 - F(n)^2 against its cataloged target.

    Scalar: F(n+2)*F(n-1).  Odd levels: 5^((r-1)/2)*F(2n+1).  Even
    levels: cataloged as 5^(r/2)*L(2n+1), which overstates the scale by
    one factor of five; when the cataloged form fails but
    5^((r-2)/2)*L(2n+1) verifies, the case reports holds-corrected with
    the cataloged sides as the counterexample payload.
    """
    for n in range(p.j_min, p.j_max + 1):

        def sides(F, L, n=n):
            diff = F(n + 1) * F(n + 1) - F(n) * F(n)
            if p.r == 0:
                return diff, F(n + 2) * F(n - 1), None
            if p.r % 2 == 1:
                return diff, (5**p.odd_power) * F(2 * n + 1), None
            stated = (5**p.even_power) * L(2 * n + 1)
            corrected = (5 ** ((p.r - 2) // 2)) * L(2 * n + 1)
            return diff, stated, corrected

        yield {"n": n}, *_evaluate_pair(p, sides)


@_checker(order=2)
def check_square_series(p: CheckerParams):
    """Sum of F(i)^2 for i = 1..n against the closed form: F(n)*F(n+1) at
    the scalar level, 5^((r-1)/2)*(F(2n+1) - F(1)) at odd levels, and
    5^((r-2)/2)*(L(2n+1) - L(1)) at even levels."""
    F0, L0, _, _ = _fib_evaluators(p)
    zero = 0 if p.r == 0 else zeros(2**p.r)
    running = zero
    for n in range(1, p.n_max + 1):

        def sides(F, L, n=n):
            total = zero
            for i in range(1, n + 1):
                total = total + F(i) * F(i)
            if p.r == 0:
                return total, F(n) * F(n + 1)
            if p.r % 2 == 1:
                return total, (5**p.odd_power) * (F(2 * n + 1) - F(1))
            return total, (5 ** ((p.r - 2) // 2)) * (L(2 * n + 1) - L(1))

        running = running + F0(n) * F0(n)
        lhs, rhs = _evaluate_pair(p, sides)
        if lhs != running:
            raise RuntimeError("incremental square series disagrees with direct sum")
        yield {"n": n}, lhs, rhs


CHECKER_IDS = tuple(CHECKERS)


# ---------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class SuiteGrid:
    """Suite-level parameter grid.

    Matrix levels run for r = 1..max_r wherever k^r stays within
    dim_cap; the order-2 family additionally runs at extra_fib_level.
    Scalar forms always run at r = 0.
    """

    max_k: int = 4
    max_r: int = 2
    n_max: int = 12
    m_max: int = 12
    j_min: int = -6
    j_max: int = 12
    dim_cap: int = 27
    extra_fib_level: int | None = 3

    def __post_init__(self) -> None:
        if self.max_k < 2:
            raise ValueError("max_k must be >= 2")
        if self.max_r < 1:
            raise ValueError("max_r must be >= 1")
        if self.n_max < 1 or self.m_max < 1 or self.j_min > self.j_max:
            raise ValueError("empty parameter grid")
        extra = self.extra_fib_level
        not_level = not isinstance(extra, int) or isinstance(extra, bool) or extra < 1
        if extra is not None and not_level:
            raise ValueError(f"extra_fib_level must be None or an integer >= 1, got {extra!r}")

    def k_values(self) -> tuple[int, ...]:
        return tuple(range(2, self.max_k + 1))

    def matrix_levels(self, k: int) -> tuple[int, ...]:
        levels = [r for r in range(1, self.max_r + 1) if k**r <= self.dim_cap]
        extra = self.extra_fib_level
        if k == 2 and extra is not None and extra not in levels and 2**extra <= self.dim_cap:
            levels.append(extra)
        return tuple(levels)


@dataclass(frozen=True)
class SuiteResult(_Verdict):
    """Aggregated result of a run_suite call."""

    suite: str
    grid: dict
    cases: tuple[CheckCase, ...]
    generated_at: str = field(default="", compare=False)

    def status_counts(self) -> dict[str, int]:
        counts = {HOLDS: 0, FAILS: 0, HOLDS_CORRECTED: 0, SKIPPED: 0}
        for c in self.cases:
            counts[c.status] += 1
        return counts

    def to_json_dict(self, include_timestamp: bool = True) -> dict:
        data = {
            "suite": self.suite,
            "grid": jsonify(self.grid),
            "cases": [
                {
                    "id": c.checker,
                    "params": jsonify(c.params),
                    "status": c.status,
                    "counterexample": jsonify(c.counterexample),
                }
                for c in self.cases
            ],
            "pass": self.passed,
        }
        if include_timestamp:
            data["generated_at"] = self.generated_at
        return data

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timestamp), indent=2, sort_keys=True)


def jsonify(value):
    """Recursively turn integers into decimal strings; booleans, None and
    strings pass through."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {key: jsonify(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


def _case_sort_key(c: CheckCase):
    parts = []
    for key in sorted(c.params):
        v = c.params[key]
        if isinstance(v, int) and not isinstance(v, bool):
            parts.append((key, 0, v, ""))
        else:
            parts.append((key, 1, 0, str(v)))
    return (c.checker, tuple(parts))


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


def run_suite(selection=None, grid: SuiteGrid | None = None) -> SuiteResult:
    """Run the selected checkers over the grid and aggregate all cases.

    The aggregate passes when no case fails unexpectedly: holds,
    holds-corrected, skipped, and documented expected failures all count
    as success.
    """
    grid = grid or SuiteGrid()
    ids = resolve_selection(selection)
    cases: list[CheckCase] = []
    for checker_id in ids:
        checker = CHECKERS[checker_id]
        for k, r in _combos(checker, grid):
            p = CheckerParams(
                k=k,
                r=r,
                n_max=grid.n_max,
                m_max=grid.m_max,
                j_min=grid.j_min,
                j_max=grid.j_max,
            )
            cases.extend(checker(p).cases)
    cases.sort(key=_case_sort_key)
    suite = "all" if len(ids) == len(CHECKER_IDS) else ",".join(ids)
    if not ids:
        suite = "none"
    return SuiteResult(
        suite=suite,
        grid=asdict(grid),
        cases=tuple(cases),
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
