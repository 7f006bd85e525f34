from __future__ import annotations

import copy
import pickle
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
import reference_certificate

from cachewright.converse import (
    case1_certificate,
    case2_certificate,
    check_certificate,
    parse_certificate,
    perturbed,
    tightness_check,
)
from cachewright.converse.axioms import (
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
from cachewright.converse.case1 import case1_target, in_case1_range
from cachewright.converse.case2 import case2_target, in_case2_range
from cachewright.converse.certificate import Certificate
from cachewright.converse.entropy import index_of, kind_of, var, wvar, xvar, zvar
from cachewright.converse.tightness import FAMILIES, scheme_point, yu_point
from cachewright.errors import (
    CertificateError,
    ConfigMismatch,
    MalformedAxiom,
    NegativeMultiplierOnInequality,
    OutOfCaseRange,
    SymmetryOutsideTable,
)

F = Fraction


def fs(*vars_):
    return frozenset(vars_)


def test_case1_3_4_target_literal():
    cert = case1_certificate(3, 4)
    assert (cert.target_m, cert.target_r, cert.target_rhs) == (F(4), F(8), F(11))
    assert check_certificate(cert).ok


def test_case1_4_4_and_2_2_targets():
    cert = case1_certificate(4, 4)
    assert (cert.target_m, cert.target_r, cert.target_rhs) == (F(4), F(12), F(15))
    assert check_certificate(cert).ok
    cert = case1_certificate(2, 2)
    assert (cert.target_m, cert.target_r, cert.target_rhs) == (F(2), F(2), F(3))
    assert check_certificate(cert).ok


def test_case2_2_4_target_literal():
    cert = case2_certificate(2, 4)
    assert (cert.target_m, cert.target_r, cert.target_rhs) == (F(5), F(6), F(9))
    assert check_certificate(cert).ok


def test_case2_2_5_target():
    cert = case2_certificate(2, 5)
    assert (cert.target_m, cert.target_r, cert.target_rhs) == (F(15, 2), F(10), F(14))
    assert check_certificate(cert).ok


def test_trivial_certificates():
    assert check_certificate(case1_certificate(1, 1)).ok
    assert check_certificate(case2_certificate(1, 1)).ok


def test_empty_axioms_zero_target_passes():
    cert = Certificate(2, 2, 1, ((1, 2),), (), F(0), F(0), F(0))
    assert check_certificate(cert).ok


def test_mutation_any_multiplier_breaks_3_4():
    cert = case1_certificate(3, 4)
    for index in range(len(cert.axioms)):
        assert not check_certificate(perturbed(cert, index, 1)).ok, index


def test_mutation_any_multiplier_breaks_2_4():
    cert = case2_certificate(2, 4)
    for index in range(len(cert.axioms)):
        assert not check_certificate(perturbed(cert, index, 1)).ok, index


def _scale(cert):
    return lcm(*(mult.denominator for _, mult in cert.axioms))


@pytest.mark.parametrize("n, k", [(3, 4), (2, 4)])
def test_fractional_mutation_of_any_multiplier_breaks(n, k):
    # a delta whose denominator is coprime to the certificate's lcm changes
    # the scale the checker sums over, so a slip in the scaling would show
    cert = case1_certificate(n, k) if in_case1_range(n, k) else case2_certificate(n, k)
    delta = F(1, _scale(cert) + 1)
    for index in range(len(cert.axioms)):
        assert not check_certificate(perturbed(cert, index, delta)).ok, index


def _matches_reference(cert):
    got = check_certificate(cert)
    assert got == reference_certificate.check_certificate(cert)
    for value in (got.residual_m, got.residual_r, got.residual_const,
                  *got.leftover_terms.values()):
        assert type(value) is Fraction
    return got


_FAMILY_PAIRS = [(f, n, k) for k in range(2, 9) for n in range(2, k + 1) for f in FAMILIES
                 if f.in_range(n, k)]


@pytest.mark.parametrize("family, n, k", _FAMILY_PAIRS,
                         ids=[f"theorem{f.theorem}-{n}-{k}" for f, n, k in _FAMILY_PAIRS])
def test_checker_matches_the_fraction_reference(family, n, k):
    cert = family.certificate(n, k)
    assert _matches_reference(cert).ok
    inequality = next(i for i, (ax, _) in enumerate(cert.axioms) if not ax.equality)
    equality = next(i for i, (ax, _) in enumerate(cert.axioms) if ax.equality)
    bent = [perturbed(cert, inequality, F(1, 11)), perturbed(cert, equality, F(-3, 13))]
    bent.append(perturbed(bent[0], equality, F(-3, 13)))
    for copy, new_factor in zip(bent, (11, 13, 143)):
        assert _scale(copy) == _scale(cert) * new_factor
        report = _matches_reference(copy)
        assert not report.ok and report.leftover_terms


_WIDE_PAIRS = [(f, n, k) for k in range(2, 21) for n in range(2, k + 1) for f in FAMILIES
               if f.in_range(n, k)]


def test_every_family_certificate_to_k_20_passes_is_tight_and_lies_in_d():
    # each certificate's table requests every file in every row, so it bounds the worst
    # case over D, and through it the worst case over all demands
    assert len(_WIDE_PAIRS) == 199
    for family, n, k in _WIDE_PAIRS:
        cert = family.certificate(n, k)
        assert check_certificate(cert).ok, (family.theorem, n, k)
        assert (cert.target_m, cert.target_r, cert.target_rhs) == family.target(n, k)
        files = set(range(1, n + 1))
        assert all(set(demand) == files for demand in cert.demands), (family.theorem, n, k)
        assert tightness_check(n, k).tight, (n, k)


def test_checker_refuses_a_multiplier_that_is_not_rational():
    for bad in (1.0, 0.5, "1", True):
        axioms = ((CacheBound(1), F(1)), (CacheBound(2), bad))
        cert = Certificate(2, 2, 1, ((1, 2), (2, 1)), axioms, F(2), F(0), F(0))
        with pytest.raises(MalformedAxiom, match="not an int or a Fraction") as info:
            check_certificate(cert)
        assert info.value.index == 1


def test_checker_accepts_int_multipliers():
    axioms = ((CacheBound(1), 1), (CacheBound(2), F(1, 2)))
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)), axioms, F(3, 2), F(0), F(0))
    assert _matches_reference(cert).leftover_terms == {fs(zvar(1)): -1, fs(zvar(2)): F(-1, 2)}


def test_mutation_reports_noncancellation():
    cert = case1_certificate(3, 4)
    sub_index = next(i for i, (ax, _) in enumerate(cert.axioms)
                     if isinstance(ax, Submodularity))
    rep = check_certificate(perturbed(cert, sub_index, 1))
    assert not rep.ok
    assert "do not cancel" in rep.reason


def test_out_of_case_range():
    with pytest.raises(OutOfCaseRange):
        case1_certificate(2, 4)
    with pytest.raises(OutOfCaseRange):
        case2_certificate(3, 4)   # even-K boundary: inequality false there
    with pytest.raises(OutOfCaseRange):
        case2_certificate(1, 2)   # single file: inequality false there


def test_case2_bound_false_for_single_file():
    # the stated inequality is violated by the trivially achievable point
    # (M, R) = ((K-2)/K, 2/K), so no sound certificate can exist for N = 1
    for k in range(2, 9):
        t_m, t_r, rhs = case2_target(1, k)
        memory, rate = F(k - 2, k), F(2, k)
        assert t_m * memory + t_r * rate < rhs, k
        assert t_m * F(0) + t_r * F(1) < rhs, k  # also violated at (0, 1)


def test_case2_bound_false_at_even_boundary():
    # for even K and N = (K+2)/2, the coded-placement point beats the bound
    for k in (2, 4, 6, 8):
        n = (k + 2) // 2
        t_m, t_r, rhs = case2_target(n, k)
        memory, rate = scheme_point(n, k)
        assert t_m * memory + t_r * rate < rhs, (n, k)


def test_case1_bound_tight_at_both_corners():
    for k in range(2, 9):
        for n in range(2, k + 1):
            if not in_case1_range(n, k):
                continue
            t_m, t_r, rhs = case1_target(n, k)
            for memory, rate in (scheme_point(n, k), (F(n * (k - 1), k), F(1, k))):
                assert t_m * memory + t_r * rate == rhs, (n, k)


def test_case2_bound_tight_at_both_corners():
    for k in range(3, 9):
        for n in range(2, k + 1):
            if not in_case2_range(n, k):
                continue
            t_m, t_r, rhs = case2_target(n, k)
            for memory, rate in (yu_point(n, k, k - 2), (F(n * (k - 1), k), F(1, k))):
                assert t_m * memory + t_r * rate == rhs, (n, k)


def test_tightness_check_values():
    rep = tightness_check(3, 4)
    assert rep.tight
    assert rep.entries[0].memory == F(25, 12)
    assert rep.entries[0].bound_rate == F(1, 3)
    rep = tightness_check(2, 4)
    assert rep.tight
    assert rep.entries[0].memory == F(1)
    assert rep.entries[0].bound_rate == F(2, 3)
    with pytest.raises(OutOfCaseRange):
        tightness_check(1, 4)


def test_tightness_exhaustive_k_to_8():
    for k in range(2, 9):
        for n in range(2, k + 1):
            if in_case1_range(n, k) or in_case2_range(n, k):
                rep = tightness_check(n, k)
                assert rep.tight, (n, k)
                for entry in rep.entries:
                    if entry.case == 1:
                        assert entry.bound_rate == F(1, k - 1)
                    else:
                        assert entry.bound_rate == F(2, k - 1)


def test_generator_permutations_fix_their_demands():
    for maker, pairs in ((case1_certificate, [(3, 4), (4, 4), (4, 7)]),
                         (case2_certificate, [(2, 4), (3, 7), (2, 5)])):
        for n, k in pairs:
            cert = maker(n, k)
            for axiom, _ in cert.axioms:
                if isinstance(axiom, PermSymmetry):
                    for v in axiom.s:
                        if kind_of(v) == "X":
                            d = cert.demands[index_of(v) - 1]
                            assert axiom.permuted_demand(d) == d


def test_checker_rejects_negative_inequality_weight():
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)),
                       ((CacheBound(1), F(-1)),), F(1), F(0), F(0))
    with pytest.raises(NegativeMultiplierOnInequality):
        check_certificate(cert)


def test_checker_rejects_bad_indices():
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)),
                       ((CacheBound(9), F(1)),), F(1), F(0), F(0))
    with pytest.raises(MalformedAxiom) as info:
        check_certificate(cert)
    assert info.value.index == 0
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)),
                       ((RateBound(3), F(1)),), F(0), F(1), F(0))
    with pytest.raises(MalformedAxiom):
        check_certificate(cert)


# one valid instance of every kind over N = K = |table| = 2, so index 3 is one past every range
_TABLE = ((1, 2), (2, 1))
_VALID = (Submodularity(fs(wvar(1)), fs(zvar(1))), Monotonicity(fs(wvar(1), zvar(1)), fs(wvar(1))),
          CacheBound(1), RateBound(1), Decodability(1, 1, fs(zvar(1), xvar(1))),
          Totality(fs(wvar(1), wvar(2))), FileIndependence(fs(wvar(1))),
          PermSymmetry((2, 1), fs(zvar(1), xvar(1))), FileSymmetry(1, 2, 1))


def _out_of_range(value):
    if isinstance(value, frozenset):
        return [value | {var(kind, idx)} for kind in "WZX" for idx in (0, 3)]
    if isinstance(value, tuple):   # a permutation of the users
        return [(0, 1), (1, 3)]
    return [0, 3]


_BROKEN = [axiom._replace(**{name: bad})
           for axiom in _VALID for name in axiom._fields
           for bad in _out_of_range(getattr(axiom, name))]


def test_every_kind_has_a_valid_instance():
    assert len({type(a) for a in _VALID}) == 9
    cert = Certificate(2, 2, 1, _TABLE, tuple((a, F(1)) for a in _VALID), F(0), F(0), F(0))
    check_certificate(cert)   # no field or side condition is violated


def test_an_axiom_equals_only_its_own_kind_and_a_certificate_copies_equal():
    # two kinds with the same field types and values, and the bare fields of each
    a, b = fs(wvar(1)), fs(zvar(1))
    for one, other, fields in ((Submodularity(a, b), Monotonicity(a, b), (a, b)),
                               (CacheBound(1), RateBound(1), (1,))):
        assert (one == other, one != other) == (False, True)
        assert (one == fields, one != fields, other == fields, other != fields) == (
            False, True, False, True)
    assert len(set(_VALID)) == 9
    cert = FAMILIES[0].certificate(3, 4)
    for record in (cert, check_certificate(cert)):
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                       copy.deepcopy(record)):
            assert type(copied) is type(record) and copied == record


@pytest.mark.parametrize("bad", _BROKEN, ids=lambda a: " ".join([a.kind, *a.tokens()]))
def test_checker_range_checks_every_field_and_side_condition(bad):
    cert = Certificate(2, 2, 1, _TABLE, ((CacheBound(1), F(1)), (bad, F(1))), F(0), F(0), F(0))
    with pytest.raises(MalformedAxiom) as info:
        check_certificate(cert)
    assert info.value.index == 1


@pytest.mark.parametrize("member", ["W1", ("W", 1), None, 1.0, True, 3 << 32, -1])
def test_a_set_member_that_is_not_a_variable_is_refused(member):
    bad = Submodularity(frozenset({member}), fs(zvar(1)))
    cert = Certificate(2, 2, 1, _TABLE, ((CacheBound(1), F(1)), (bad, F(1))), F(0), F(0), F(0))
    with pytest.raises(MalformedAxiom, match="is not a variable") as info:
        check_certificate(cert)
    assert info.value.index == 1


# every side condition of every kind, each broken alone at index 1 after a valid CacheBound;
# no permutation of two users leaves _TABLE, so the last case drops its demand (2, 1)
@pytest.mark.parametrize("bad, table, error, message", [
    pytest.param(Submodularity(frozenset(), fs(zvar(1))), _TABLE, MalformedAxiom,
                 "submodularity needs two nonempty sets", id="submod-empty-a"),
    pytest.param(Submodularity(fs(zvar(1)), frozenset()), _TABLE, MalformedAxiom,
                 "submodularity needs two nonempty sets", id="submod-empty-b"),
    pytest.param(Monotonicity(frozenset(), frozenset()), _TABLE, MalformedAxiom,
                 "monotonicity needs a nonempty superset", id="mono-empty-superset"),
    pytest.param(Monotonicity(fs(wvar(1)), fs(zvar(1))), _TABLE, MalformedAxiom,
                 "second set is not contained in the first", id="mono-not-a-subset"),
    pytest.param(Decodability(1, 1, fs(xvar(1))), _TABLE, MalformedAxiom,
                 "Z1 missing from the conditioning set", id="decode-without-z"),
    pytest.param(Decodability(2, 1, fs(zvar(2))), _TABLE, MalformedAxiom,
                 "X1 missing from the conditioning set", id="decode-without-x"),
    pytest.param(Totality(fs(wvar(1), zvar(1))), _TABLE, MalformedAxiom,
                 "set does not contain every file", id="total-misses-a-file"),
    pytest.param(FileIndependence(frozenset()), _TABLE, MalformedAxiom,
                 "needs a nonempty file set", id="fileind-empty"),
    pytest.param(FileIndependence(fs(wvar(1), zvar(1))), _TABLE, MalformedAxiom,
                 "only file variables allowed", id="fileind-non-file"),
    pytest.param(PermSymmetry((1, 1), fs(zvar(1))), _TABLE, MalformedAxiom,
                 "(1, 1) is not a permutation of [1, 2]", id="permsym-non-permutation"),
    pytest.param(PermSymmetry((2, 1), fs(xvar(1))), ((1, 2),), SymmetryOutsideTable,
                 "permutation sends demand 1 to (2, 1), not in the table",
                 id="permsym-image-outside-table"),
])
def test_each_side_condition_is_refused_by_message_and_index(bad, table, error, message):
    cert = Certificate(2, 2, 1, table, ((CacheBound(1), F(1)), (bad, F(1))), F(0), F(0), F(0))
    with pytest.raises(CertificateError) as info:
        check_certificate(cert)
    assert type(info.value) is error
    assert info.value.index == 1
    assert str(info.value) == f"axiom 1: {message}"


def test_budget_slack_is_accepted():
    # proving with a smaller M coefficient than the target is still a proof:
    # H(W_1) >= 0 and H(W_1) = 1 combine to the constant 1 >= 0, which
    # dominates the target M >= -1
    axioms = ((Monotonicity(fs(wvar(1)), frozenset()), F(1)),
              (FileIndependence(fs(wvar(1))), F(-1)))
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)), axioms, F(1), F(0), F(-1))
    assert check_certificate(cert).ok


def test_insufficient_constant_fails():
    cert = Certificate(2, 2, 1, ((1, 2), (2, 1)), (), F(1), F(1), F(1))
    rep = check_certificate(cert)
    assert not rep.ok and "constant" in rep.reason


@pytest.mark.parametrize("field_name, reason", [
    ("target_m", "proved M coefficient 4 exceeds target 3"),
    ("target_r", "proved R coefficient 8 exceeds target 7"),
])
def test_a_coefficient_above_its_target_is_the_reason_a_check_fails(field_name, reason):
    cert = case1_certificate(3, 4)  # proves 4M + 8R >= 11 exactly
    lowered = cert._replace(**{field_name: getattr(cert, field_name) - 1})
    rep = check_certificate(lowered)
    assert (rep.ok, rep.reason) == (False, reason)


@pytest.mark.parametrize("demands, reason", [
    ((), "certificate has an empty demand table"),
    (((1, 2), (1, 2, 1)), r"demand \(1, 2, 1\) does not have K=2 entries"),
    (((1, 2), (3, 1)), r"demand \(3, 1\) uses a file outside \[1, 2\]"),
    (((1, 2), (2, 1), (1, 2)), r"demand \(1, 2\) appears twice in the table"),
])
def test_a_malformed_demand_table_is_refused(demands, reason):
    cert = Certificate(2, 2, 1, demands, (), F(1), F(1), F(0))
    with pytest.raises(ConfigMismatch, match=f"^{reason}$"):
        check_certificate(cert)


def _checked(n: int, axiom: str) -> str:
    """The verdict or error class of a one-axiom certificate whose header says N = n."""
    text = f"NK {n} 2 CASE 1\nD 1 1 2\nAX {axiom} MUL 1/1\nTARGET 1/1 M + 1/1 R >= 0/1\n"
    cert = parse_certificate(text)
    try:
        return check_certificate(cert).verdict
    except MalformedAxiom as exc:
        return type(exc).__name__


@pytest.mark.parametrize("axiom, verdict", [("MONO W1 -", "FAIL"),
                                            ("TOTAL W1,Z1", "MalformedAxiom")])
def test_the_header_n_costs_the_checker_nothing(axiom, verdict):
    # the checker's work follows the variables the text names, not the N it declares;
    # the small N is measured first, so a checker that builds N files fails before 10**9
    tracemalloc.start()
    try:
        assert _checked(10**5, axiom) == verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    start = time.perf_counter()
    assert _checked(10**9, axiom) == verdict
    assert time.perf_counter() - start < 1
