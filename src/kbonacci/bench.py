"""Timing comparison of the two term-evaluation paths.

The iterative path runs the plain sum recurrence forward with no
memoization; the qpow path (fast_term) computes x^j mod P_k(x) by
repeated squaring.  Both must produce identical values; timings are
informational.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple

from .builders import fast_term
from .matrix import _require_int, decimal_text
from .sequences import _validate_order

# largest sum of j^2 over the rows that run_bench takes: the plain
# recurrence adds terms of up to j bits j times, so a row costs about j^2.
# On a 2-CPU machine (Python 3.11.7) that read about 15 s per 10^12 at k = 2
# (j = 10^6) and 28 to 34 s at k = 3 to 100 (j = 2*10^5).  The CLI's own
# caps admit `bench --k 2 --j-max 25000000`, which would run for hours
ITER_CAP = 10**12


class BenchMismatch(RuntimeError):
    """The two evaluation paths disagreed; carries the offending index."""

    def __init__(self, k: int, j: int):
        super().__init__(f"evaluation paths disagree at k={k}, j={j}")
        self.k = k
        self.j = j


class BenchRow(namedtuple("BenchRow", "j iter_seconds qpow_seconds digits")):
    """One benchmark grid point: the index j, the two paths' times in
    seconds (floats) and the term's decimal digit count."""

    __slots__ = ()


def dec_digits(n: int) -> int:
    """Decimal digit count of n, sign excluded."""
    return len(decimal_text(abs(n)))


def iterative_term(k: int, j: int) -> int:
    """Single forward pass of the sum recurrence from the seed window."""
    _validate_order(k)
    _require_int("index", j, 0)
    if k == 2:
        a, b = 0, 1
        for _ in range(j):
            a, b = b, a + b
        return a
    # the seed window is k - 1 zeros and then a one
    if j < k:
        return int(j == k - 1)
    window = deque([0] * (k - 1) + [1], maxlen=k)
    # the next term is the sum of the window; the sum then gains the new
    # term and loses the one that drops out
    total = 1
    for _ in range(j - k + 1):
        oldest = window[0]
        window.append(total)
        total += total - oldest
    return window[-1]


def bench_indices(k: int, j_max: int, step: int | None = None) -> range:
    """The indices run_bench times, j = step, 2*step, ..., j_max, with
    its arguments checked.  step defaults to j_max (a single row)."""
    _validate_order(k)
    if step is None:
        step = j_max
    _require_int("j_max", j_max, 1)
    if not isinstance(step, int) or isinstance(step, bool) or not 1 <= step <= j_max:
        raise ValueError(f"step must satisfy 1 <= step <= j_max, got {step!r}")
    return range(step, j_max + 1, step)


def run_bench(k: int, j_max: int, step: int | None = None) -> list[BenchRow]:
    """Time both paths at each of bench_indices(k, j_max, step).

    Every row's two values are compared; a disagreement raises
    BenchMismatch.  A grid whose sum of j^2 exceeds ITER_CAP is refused
    before any term is made.
    """
    js = bench_indices(k, j_max, step)
    m = len(js)
    # j = step * i for i = 1..m
    if js.step**2 * m * (m + 1) * (2 * m + 1) // 6 > ITER_CAP:
        raise ValueError(f"the sum of the rows' j^2 exceeds the iterative path's cap of {ITER_CAP}")
    rows = []
    for j in js:
        t0 = time.perf_counter()
        via_iter = iterative_term(k, j)
        t1 = time.perf_counter()
        via_qpow = fast_term(k, j)
        t2 = time.perf_counter()
        if via_iter != via_qpow:
            raise BenchMismatch(k, j)
        rows.append(
            BenchRow(j=j, iter_seconds=t1 - t0, qpow_seconds=t2 - t1, digits=dec_digits(via_iter))
        )
    return rows
