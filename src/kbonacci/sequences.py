"""Bidirectional k-bonacci and Lucas sequences over exact integers.

Terms exist for every integer index.  Seeds occupy a fixed window, later
terms follow the order-k sum recurrence, and earlier terms come from
running the same recurrence in reverse, so there is a single two-sided
sequence with no seam at zero.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


def _validate_order(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"order must be an integer >= 2, got {k!r}")


class KbonacciSequence:
    """Order-k sequence seeded 0, ..., 0, 1 on indices 0..k-1.

    Stores term(j) for every j in a contiguous window that grows on
    demand in both directions.  All access goes through a lock so
    concurrent readers stay consistent.
    """

    def __init__(self, k: int) -> None:
        _validate_order(k)
        self._k = k
        self._pos = [0] * (k - 1) + [1]  # _pos[j] = term(j) for j >= 0
        self._neg: list[int] = []  # _neg[i] = term(-1 - i)
        self._lock = threading.Lock()

    @property
    def order(self) -> int:
        return self._k

    def _cached(self, j: int) -> int:
        return self._pos[j] if j >= 0 else self._neg[-1 - j]

    def term(self, j: int) -> int:
        k = self._k
        with self._lock:
            pos, neg = self._pos, self._neg
            while j >= len(pos):
                pos.append(sum(pos[-k:]))
            while -1 - j >= len(neg):
                # term(m) = term(m + k) - term(m + 1) - ... - term(m + k - 1)
                m = -1 - len(neg)
                value = self._cached(m + k)
                for n in range(1, k):
                    value -= self._cached(m + n)
                neg.append(value)
            return self._cached(j)

    def term_range(self, j_lo: int, j_hi: int) -> list[int]:
        if j_lo > j_hi:
            raise ValueError(f"empty range: {j_lo} > {j_hi}")
        self.term(j_lo)
        self.term(j_hi)
        return [self._cached(j) for j in range(j_lo, j_hi + 1)]


class LucasSequence(KbonacciSequence):
    """Order-2 sequence seeded 2, 1 on indices 0..1, extended both ways."""

    def __init__(self) -> None:
        super().__init__(2)
        self._pos = [2, 1]


_registry: dict[int, KbonacciSequence] = {}
_registry_lock = threading.Lock()
_lucas = LucasSequence()


def _shared(k: int) -> KbonacciSequence:
    _validate_order(k)
    with _registry_lock:
        seq = _registry.get(k)
        if seq is None:
            seq = _registry[k] = KbonacciSequence(k)
        return seq


def term(k: int, j: int) -> int:
    """j-th term of the order-k sequence, any integer j."""
    return _shared(k).term(j)


def term_range(k: int, j_lo: int, j_hi: int) -> list[int]:
    """Terms j_lo..j_hi inclusive, in index order."""
    return _shared(k).term_range(j_lo, j_hi)


def lucas_term(j: int) -> int:
    """j-th Lucas term (seeds 2, 1), any integer j."""
    return _lucas.term(j)


def fibonacci_term(j: int) -> int:
    """j-th Fibonacci term; shorthand for term(2, j)."""
    return term(2, j)


def closed_form_band(k: int, j: int) -> int | None:
    """Power-of-two band formula where one is stated, else None.

    Band one, k <= j <= 2k-1, returns 2^(j-k), which is exact.  Band two,
    2k <= j <= 3k-2, returns the stated formula 2^(j-k) - (2^(j-2k+1) - 1),
    which is exact only at j in {2k, 2k+1} (the whole band for k <= 3); see
    the README, "Known deviations from the classical claims".  Outside
    those bands no closed form is claimed.
    """
    _validate_order(k)
    if k <= j <= 2 * k - 1:
        return 2 ** (j - k)
    if 2 * k <= j <= 3 * k - 2:
        return 2 ** (j - k) - (2 ** (j - 2 * k + 1) - 1)
    return None


@dataclass(frozen=True)
class BackwardBlock:
    """Block n of the negative-index tail: indices -(nk+1) down to -(nk+k)."""

    order: int
    index: int
    values: tuple[int, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        base = self.index * self.order
        return tuple(-(base + i) for i in range(1, self.order + 1))


@dataclass(frozen=True)
class BlockProperties:
    """Structural facts observed on one backward block."""

    alternating_signs: bool
    zero_sum: bool
    leading_matches_forward: bool
    leading_is_power_of_two: bool
    last_nonzero_unit: bool
    second_last_odd: bool
    interior_even: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "alternating_signs": self.alternating_signs,
            "zero_sum": self.zero_sum,
            "leading_matches_forward": self.leading_matches_forward,
            "leading_is_power_of_two": self.leading_is_power_of_two,
            "last_nonzero_unit": self.last_nonzero_unit,
            "second_last_odd": self.second_last_odd,
            "interior_even": self.interior_even,
        }


def backward_block(k: int, n: int) -> BackwardBlock:
    """n-th block of k backward terms, n >= 0."""
    _validate_order(k)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"block index must be an integer >= 0, got {n!r}")
    base = n * k
    values = tuple(term(k, -(base + i)) for i in range(1, k + 1))
    return BackwardBlock(order=k, index=n, values=values)


def block_properties(k: int, n: int) -> BlockProperties:
    """Evaluate the structural properties of backward block n."""
    block = backward_block(k, n)
    values = block.values
    nonzero = [v for v in values if v != 0]
    alternating = bool(nonzero) and nonzero[0] > 0
    for a, b in zip(nonzero, nonzero[1:]):
        if (a > 0) == (b > 0):
            alternating = False
            break
    second_last_pos = None
    if len(nonzero) >= 2:
        seen = 0
        for pos in range(len(values) - 1, -1, -1):
            if values[pos] != 0:
                seen += 1
                if seen == 2:
                    second_last_pos = pos
                    break
    interior_even = True
    if second_last_pos is not None:
        interior_even = all(v % 2 == 0 for v in values[:second_last_pos])
    return BlockProperties(
        alternating_signs=alternating,
        zero_sum=sum(values) == 0,
        leading_matches_forward=values[0] == term(k, k + n),
        leading_is_power_of_two=values[0] == 2**n,
        last_nonzero_unit=bool(nonzero) and abs(nonzero[-1]) == 1,
        second_last_odd=len(nonzero) >= 2 and abs(nonzero[-2]) == 2 * n + 1,
        interior_even=interior_even,
    )
