"""Documented identity deviations, kept as data.

The verification suite evaluates every identity exactly as cataloged.
Some identity families are known not to hold; each such family is
recorded here with the parameter region where it fails and the reason
observed.  run_suite treats a failing case as expected when a rule below
matches it, so discovering a new deviation means adding a rule, never
touching checker logic.
"""

from __future__ import annotations

from collections import namedtuple


class ExpectedDeviation(namedtuple("ExpectedDeviation", "checker reason min_k min_r readings", defaults=(2, 0, None))):
    """One known-failing identity family: the checker id and the reason
    (str), the least order and level it fails at (int), and the readings
    it fails for (a tuple of str, or None for every reading)."""

    __slots__ = ()

    def matches(self, checker: str, params: dict) -> bool:
        if checker != self.checker:
            return False
        if params.get("k", 2) < self.min_k or params.get("r", 0) < self.min_r:
            return False
        if self.readings is not None and params.get("reading") not in self.readings:
            return False
        return True


EXPECTED_DEVIATIONS: tuple[ExpectedDeviation, ...] = (
    ExpectedDeviation(
        checker="geometric",
        readings=("literal-identity", "literal-ones"),
        min_r=1,
        reason=(
            "the constant term of the scaled geometric sum has no literal "
            "matrix meaning; the corrected constant (the family member whose "
            "leading term is the first seed one) verifies instead"
        ),
    ),
    ExpectedDeviation(
        checker="congruence_sum",
        reason=(
            "the residue-filtered tail sum never reproduces the plain "
            "difference: for order 2 the filter empties the sum entirely, and "
            "for higher orders the filtered sum drops needed terms"
        ),
    ),
    ExpectedDeviation(
        checker="sum_formula",
        min_k=3,
        min_r=1,
        reason=(
            "the scaled partial-sum identity is anchored at the seed row and "
            "is not shift-invariant for order >= 3, so its blockwise matrix "
            "lift fails off the anti-diagonal"
        ),
    ),
    ExpectedDeviation(
        checker="square_convolution",
        min_r=1,
        reason=(
            "the matrix form of the square-sum convolution omits a constant "
            "first-step correction, so it fails for every order, including "
            "the commuting order-2 family"
        ),
    ),
)


def expected_reason(checker: str, params: dict) -> str | None:
    """The documented reason a failing case is expected, or None."""
    for rule in EXPECTED_DEVIATIONS:
        if rule.matches(checker, params):
            return rule.reason
    return None
