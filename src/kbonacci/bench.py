"""Timing comparison of the two term-evaluation paths.

The iterative path runs the plain sum recurrence forward with no
memoization; the qpow path (fast_term) computes x^j mod P_k(x) by
repeated squaring.  Both must produce identical values; timings are
informational.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .builders import fast_term
from .matrix import _require_int, decimal_text
from .sequences import _validate_order


class BenchMismatch(RuntimeError):
    """The two evaluation paths disagreed; carries the offending index."""

    def __init__(self, k: int, j: int):
        super().__init__(f"evaluation paths disagree at k={k}, j={j}")
        self.k = k
        self.j = j


@dataclass(frozen=True)
class BenchRow:
    """One benchmark grid point."""

    j: int
    iter_seconds: float
    qpow_seconds: float
    digits: int


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
    window = deque([0] * (k - 1) + [1], maxlen=k)
    if j < k:
        return window[j]
    # the next term is the sum of the window; the sum then gains the new
    # term and loses the one that drops out
    total = 1
    for _ in range(j - k + 1):
        oldest = window[0]
        window.append(total)
        total += total - oldest
    return window[-1]


def run_bench(k: int, j_max: int, step: int | None = None) -> list[BenchRow]:
    """Time both paths at j = step, 2*step, ..., j_max.

    Every row's two values are compared; a disagreement raises
    BenchMismatch.  step defaults to j_max (a single row).
    """
    _validate_order(k)
    if step is None:
        step = j_max
    _require_int("j_max", j_max, 1)
    if not isinstance(step, int) or isinstance(step, bool) or not 1 <= step <= j_max:
        raise ValueError(f"step must satisfy 1 <= step <= j_max, got {step!r}")
    rows = []
    for j in range(step, j_max + 1, step):
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
