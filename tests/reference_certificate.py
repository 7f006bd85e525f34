"""Certificate summing in plain Fraction arithmetic, the reference the tests
check converse.check_certificate's integer-weighted sum against.

It sums valid certificates only: the side conditions and multiplier checks
are the checker's and are tested on their own.
"""

from __future__ import annotations

from fractions import Fraction

from cachewright.converse.certificate import Certificate, CheckReport
from cachewright.converse.entropy import CONST, M, R, index_of, kind_of, varset_token


def check_certificate(cert: Certificate) -> CheckReport:
    residual: dict = {}
    for axiom, mult in cert.axioms:
        for key, coef in axiom.terms(cert):
            if key:
                residual[key] = residual.get(key, Fraction(0)) + coef * Fraction(mult)
    residual = {key: total for key, total in residual.items() if total}
    m, r, const = (residual.pop(key, Fraction(0)) for key in (M, R, CONST))
    if residual:
        worst = min(residual,
                    key=lambda s: sorted(("WZX".index(kind_of(v)), index_of(v)) for v in s))
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
