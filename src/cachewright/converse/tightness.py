"""The paper's two bound families, and the closed-form corners their lines meet.

Every achievable (M, R) the rate-memory curves use is a formula here, and they read every
corner from here: the coded-placement point, the uncoded-prefetching corners (yu_point) and
the small-cache line N - NM. Nothing here runs a scheme; verify measures those points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from ..errors import OutOfCaseRange, OutOfRange
from .case1 import case1_certificate, case1_target, in_case1_range
from .case2 import case2_certificate, case2_target, in_case2_range
from .certificate import Certificate


def scheme_point(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The coded-placement scheme's memory-rate pair (M_A, 1/(K-1)) as exact rationals."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    if k < 2:
        raise OutOfRange("rate 1/(K-1) needs K >= 2")
    memory = Fraction(n, k) * ((k - 2) + Fraction((k - 2) * n + 1, n * (k - 1)))
    return memory, Fraction(1, k - 1)


def rate_yu(n: int, k: int, r: int) -> Fraction:
    """Corner rate R_r = (C(K, r+1) - C(K-N, r+1)) / C(K, r) at M = Nr/K."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    if not 0 <= r <= k:
        raise OutOfRange(f"corner index {r} outside [0, {k}]")
    return Fraction(comb(k, r + 1) - comb(k - n, r + 1), comb(k, r))


def yu_point(n: int, k: int, r: int) -> tuple[Fraction, Fraction]:
    return Fraction(n * r, k), rate_yu(n, k, r)


def rate_chen(n: int, k: int, memory: Fraction) -> Fraction:
    """N - N*M on [0, 1/K] for N <= K, shown optimal there by Chen, Fan and Letaief,
    "Fundamental limits of caching: improved bounds for users with small buffers",
    IET Commun. 2016. Cited, not checked: nothing in this package proves it."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    memory = Fraction(memory)
    if not 0 <= memory <= Fraction(1, k):
        raise OutOfRange(f"M={memory} outside [0, 1/{k}]")
    return n - n * memory


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
