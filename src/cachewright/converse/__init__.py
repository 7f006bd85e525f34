"""Entropy-inequality certificates for cache-network lower bounds."""

from .axioms import (
    CacheBound,
    Decodability,
    FileIndependence,
    FileSymmetry,
    Monotonicity,
    PermSymmetry,
    RateBound,
    Submodularity,
    Totality,
)
from .case1 import case1_certificate, case1_demand_table, case1_sets, case1_target, in_case1_range
from .case2 import (
    case2_certificate,
    case2_demand_table,
    case2_sets,
    case2_tail_sets,
    case2_target,
    in_case2_range,
)
from .certificate import (
    Certificate,
    CheckReport,
    check_certificate,
    parse_certificate,
    perturbed,
    serialize_certificate,
)
from .entropy import Var, varset_token, wset, wvar, xvar, zvar
from .tightness import TightnessEntry, TightnessReport, tightness_check

__all__ = [
    "CacheBound", "Decodability", "FileIndependence", "FileSymmetry",
    "Monotonicity", "PermSymmetry", "RateBound", "Submodularity", "Totality",
    "case1_certificate", "case1_demand_table", "case1_sets", "case1_target",
    "in_case1_range", "case2_certificate", "case2_demand_table", "case2_sets",
    "case2_tail_sets", "case2_target", "in_case2_range",
    "Certificate", "CheckReport", "check_certificate", "parse_certificate",
    "perturbed", "serialize_certificate",
    "Var", "varset_token", "wset", "wvar", "xvar", "zvar",
    "TightnessEntry", "TightnessReport", "tightness_check",
]
