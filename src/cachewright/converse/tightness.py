"""Where the lower-bound lines meet the achievable corners exactly."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..baselines import rate_yu
from ..coded_placement import scheme_point
from ..errors import OutOfCaseRange
from .case1 import case1_target, in_case1_range
from .case2 import case2_target, in_case2_range


def bound_line(target: tuple[Fraction, Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """(intercept, slope) of the line a M + b R = c bounding a target (a, b, c)."""
    a, b, c = target
    return c / b, -a / b


@dataclass(frozen=True)
class TightnessEntry:
    case: int
    memory: Fraction
    bound_rate: Fraction
    achievable_rate: Fraction

    @property
    def tight(self) -> bool:
        return self.bound_rate == self.achievable_rate


@dataclass(frozen=True)
class TightnessReport:
    n: int
    k: int
    entries: tuple[TightnessEntry, ...]

    @property
    def tight(self) -> bool:
        return all(e.tight for e in self.entries)


def tightness_check(n: int, k: int) -> TightnessReport:
    """Evaluate each applicable bound line at its matching achievable corner.

    The many-files line meets the coded-placement point (M_A, 1/(K-1)); the
    few-files line meets the uncoded-prefetching corner at M = N(K-2)/K,
    whose rate is 2/(K-1).
    """
    entries = []
    if in_case1_range(n, k):
        memory, rate = scheme_point(n, k)
        intercept, slope = bound_line(case1_target(n, k))
        entries.append(TightnessEntry(1, memory, intercept + slope * memory, rate))
    if in_case2_range(n, k):
        memory = Fraction(n * (k - 2), k)
        intercept, slope = bound_line(case2_target(n, k))
        entries.append(TightnessEntry(2, memory, intercept + slope * memory,
                                      rate_yu(n, k, k - 2)))
    if not entries:
        raise OutOfCaseRange(f"({n}, {k}) is in neither characterized regime")
    return TightnessReport(n, k, tuple(entries))
