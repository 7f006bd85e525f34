"""Certificates: weighted axiom lists proving a linear memory-rate bound.

A certificate asserts t_m * M + t_r * R >= rhs. It PASSes when the weighted
sum of its axiom instances cancels every entropy term exactly and the
surviving (M, R, constant) part dominates the target: proving a smaller M or
R coefficient, or a larger constant, is at least as strong because M and R
are non-negative. Inequality axioms must carry non-negative weights;
equalities may be weighted with either sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from ..errors import (
    ConfigMismatch,
    MalformedAxiom,
    NegativeMultiplierOnInequality,
    SymmetryOutsideTable,
)
from .axioms import Axiom, OutsideTable, axiom_from_tokens
from .entropy import CONST, M, R, VarSet, natural, varset_token

Demand = tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    n: int
    k: int
    case: int
    demands: tuple[Demand, ...]
    axioms: tuple[tuple[Axiom, Fraction], ...]
    target_m: Fraction
    target_r: Fraction
    target_rhs: Fraction

    def demand_id(self, demand: Demand) -> int | None:
        if "_ids" not in self.__dict__:   # tables built once per certificate
            object.__setattr__(self, "_ids", {d: i for i, d in enumerate(self.demands, start=1)})
        return self._ids.get(tuple(demand))

    def admitted(self) -> set:
        """The variables range-checked against this table so far, grown by the checker."""
        if "_admitted" not in self.__dict__:
            object.__setattr__(self, "_admitted", set())
        return self._admitted

    def target_text(self) -> str:
        return f"{self.target_m}M+{self.target_r}R >= {self.target_rhs}"


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    axiom_count: int
    residual_m: Fraction
    residual_r: Fraction
    residual_const: Fraction
    leftover_terms: dict[VarSet, Fraction] = field(default_factory=dict)
    reason: str = ""

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def _validate_table(cert: Certificate) -> None:
    if len(cert.demands) == 0:
        raise ConfigMismatch("certificate has an empty demand table")
    seen = set()
    for d in cert.demands:
        if len(d) != cert.k:
            raise ConfigMismatch(f"demand {d} does not have K={cert.k} entries")
        if any(not 1 <= f <= cert.n for f in d):
            raise ConfigMismatch(f"demand {d} uses a file outside [1, {cert.n}]")
        if d in seen:
            raise ConfigMismatch(f"demand {d} appears twice in the table")
        seen.add(d)


def check_certificate(cert: Certificate) -> CheckReport:
    """Validate side conditions, sum the axioms, compare with the target.

    Multipliers must be int or Fraction (bool is refused). The sum runs over
    integers: each multiplier is scaled by the lcm of all their denominators,
    and only the surviving residual entries are divided back by that lcm.
    """
    _validate_table(cert)
    for index, (_, mult) in enumerate(cert.axioms):
        if not isinstance(mult, (int, Fraction)) or isinstance(mult, bool):
            raise MalformedAxiom(index, f"multiplier {mult!r} is not an int or a Fraction")
    scale = lcm(*(mult.denominator for _, mult in cert.axioms))
    residual: dict = {}   # zero sums are dropped at once, so the dict stays small
    for index, (axiom, mult) in enumerate(cert.axioms):
        weight = mult.numerator * (scale // mult.denominator)
        if not axiom.equality and weight < 0:
            raise NegativeMultiplierOnInequality(index, f"{axiom.kind} weighted {mult}")
        try:
            axiom.validate(cert)
        except OutsideTable as exc:
            raise SymmetryOutsideTable(index, str(exc)) from exc
        except ValueError as exc:
            raise MalformedAxiom(index, str(exc)) from exc
        for key, coef in axiom.terms(cert):
            if key:   # the empty set has zero entropy
                total = residual.get(key, 0) + coef * weight
                if total:
                    residual[key] = total
                else:
                    residual.pop(key, None)

    m, r, const = (Fraction(residual.pop(key, 0), scale) for key in (M, R, CONST))
    residual = {key: Fraction(total, scale) for key, total in residual.items()}
    if residual:
        worst = min(residual, key=sorted)
        reason = (f"{len(residual)} entropy terms do not cancel, "
                  f"e.g. {residual[worst]}*H({varset_token(worst)})")
    elif m > cert.target_m:
        reason = f"proved M coefficient {m} exceeds target {cert.target_m}"
    elif r > cert.target_r:
        reason = f"proved R coefficient {r} exceeds target {cert.target_r}"
    elif const > -cert.target_rhs:
        reason = f"proved constant {-const} below target {cert.target_rhs}"
    else:
        reason = ""
    return CheckReport(not reason, len(cert.axioms), m, r, const, residual, reason)


def perturbed(cert: Certificate, index: int, delta=1) -> Certificate:
    """Copy with one multiplier shifted; used by mutation tests."""
    axioms = list(cert.axioms)
    axiom, mult = axioms[index]
    axioms[index] = (axiom, mult + Fraction(delta))
    return Certificate(cert.n, cert.k, cert.case, cert.demands, tuple(axioms),
                       cert.target_m, cert.target_r, cert.target_rhs)


def _frac_token(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=4096)   # a certificate has a few distinct multipliers; Fractions are immutable
def _parse_frac(token: str) -> Fraction:
    num, den = token.split("/")
    return Fraction(-natural(num[1:]) if num[:1] == "-" else natural(num), natural(den))


def serialize_certificate(cert: Certificate) -> str:
    """Line-oriented text form; whitespace-delimited, UTF-8, LF endings."""
    lines = [f"NK {cert.n} {cert.k} CASE {cert.case}"]
    for i, d in enumerate(cert.demands, start=1):
        lines.append("D " + str(i) + " " + " ".join(str(f) for f in d))
    for axiom, mult in cert.axioms:
        lines.append("AX " + " ".join([axiom.kind, *axiom.tokens()])
                     + " MUL " + _frac_token(mult))
    lines.append(f"TARGET {_frac_token(cert.target_m)} M + "
                 f"{_frac_token(cert.target_r)} R >= {_frac_token(cert.target_rhs)}")
    return "\n".join(lines) + "\n"


_NK = ("NK", "<n>", "<k>", "CASE", "<case>")
_TARGET = ("TARGET", "<u>/<v>", "M", "+", "<u>/<v>", "R", ">=", "<u>/<v>")


def _fields(parts: list[str], shape: tuple[str, ...]) -> list[str]:
    """The <...> fields of a line that must match shape token for token."""
    if len(parts) != len(shape) or any(p != s for p, s in zip(parts, shape) if s[0] != "<"):
        raise ValueError("expected " + " ".join(shape))
    return [p for p, s in zip(parts, shape) if s[0] == "<"]


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate; a malformed line raises ConfigMismatch naming it."""
    header = target = None
    demands: list[Demand] = []
    axioms: list[tuple[Axiom, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] == "NK":
                if header is not None:
                    raise ValueError("second NK line")
                header = [natural(t) for t in _fields(parts, _NK)]
            elif parts[0] == "D":
                if header is None:
                    raise ValueError("demand before the NK line")
                if natural(parts[1]) != len(demands) + 1:
                    raise ValueError(f"demand id {parts[1]} out of order, "
                                     f"expected {len(demands) + 1}")
                demand = tuple(map(natural, parts[2:]))
                if len(demand) != header[1] or not all(1 <= f <= header[0] for f in demand):
                    raise ValueError(f"demand is not K={header[1]} files in [1, {header[0]}]")
                demands.append(demand)
            elif parts[0] == "AX":
                if parts[-2] != "MUL":
                    raise ValueError("axiom line lacks a multiplier")
                axioms.append((axiom_from_tokens(parts[1], parts[2:-2]),
                               _parse_frac(parts[-1])))
            elif parts[0] == "TARGET":
                if target is not None:
                    raise ValueError("second TARGET line")
                target = [_parse_frac(t) for t in _fields(parts, _TARGET)]
            else:
                raise ValueError("unrecognized line")
        except IndexError as exc:
            raise ConfigMismatch(f"line {lineno}: too few fields in {raw!r}") from exc
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigMismatch(f"line {lineno}: {exc} in {raw!r}") from exc
    if header is None or target is None:
        raise ConfigMismatch("certificate text lacks a header or target")
    return Certificate(*header, tuple(demands), tuple(axioms), *target)
