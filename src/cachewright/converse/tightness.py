"""The paper's two bound families, and where their lines meet the achievable corners."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..baselines import yu_point
from ..coded_placement import scheme_point
from ..errors import OutOfCaseRange
from .case1 import case1_certificate, case1_target, in_case1_range
from .case2 import case2_certificate, case2_target, in_case2_range
from .certificate import Certificate


def bound_line(target: tuple[Fraction, Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """(intercept, slope) of the line a M + b R = c bounding a target (a, b, c)."""
    a, b, c = target
    return c / b, -a / b


@dataclass(frozen=True)
class Family:
    """One theorem: a lower-bound line certified on a regime of (N, K) and met
    exactly by an achievable corner, which the known curve tags as `tag`."""

    case: int
    theorem: str                                   # the converse --theorem key
    in_range: Callable[[int, int], bool]
    target: Callable[[int, int], tuple[Fraction, Fraction, Fraction]]
    certificate: Callable[[int, int], Certificate]
    corner: Callable[[int, int], tuple[Fraction, Fraction]]
    tag: Callable[[int, int], str]


# many files: the coded-placement point (M_A, 1/(K-1)); few files: the
# uncoded-prefetching corner at M = N(K-2)/K, whose rate is 2/(K-1)
FAMILIES = (
    Family(1, "2", in_case1_range, case1_target, case1_certificate, scheme_point,
           lambda n, k: "theorem-1-point"),
    Family(2, "4", in_case2_range, case2_target, case2_certificate,
           lambda n, k: yu_point(n, k, k - 2), lambda n, k: f"yu-r{k - 2}"),
)


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
    """Evaluate each applicable bound line at its family's achievable corner."""
    entries = []
    for f in FAMILIES:
        if f.in_range(n, k):
            memory, rate = f.corner(n, k)
            intercept, slope = bound_line(f.target(n, k))
            entries.append(TightnessEntry(f.case, memory, intercept + slope * memory, rate))
    if not entries:
        raise OutOfCaseRange(f"({n}, {k}) is in neither characterized regime")
    return TightnessReport(n, k, tuple(entries))
