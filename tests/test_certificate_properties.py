"""Property tests: the certificate text round-trips, and mutations end in a verdict or a refusal."""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from cachewright.converse import (
    case1_certificate,
    case2_certificate,
    check_certificate,
    parse_certificate,
    serialize_certificate,
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
from cachewright.converse.case1 import in_case1_range
from cachewright.converse.certificate import Certificate
from cachewright.converse.entropy import wvar, xvar, zvar
from cachewright.errors import CachewrightError


@st.composite
def certificates(draw) -> Certificate:
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    demands = draw(st.lists(st.tuples(*[st.integers(1, n)] * k), min_size=1, max_size=4,
                            unique=True))
    user, file, demand_id = st.integers(1, k), st.integers(1, n), st.integers(1, len(demands))
    var = st.one_of(file.map(wvar), user.map(zvar), demand_id.map(xvar))
    varset = st.frozensets(var, max_size=4)
    perm = st.permutations(range(1, k + 1)).map(tuple)
    kinds = [st.builds(Submodularity, varset, varset), st.builds(Monotonicity, varset, varset),
             st.builds(CacheBound, user), st.builds(RateBound, demand_id),
             st.builds(Decodability, user, demand_id, varset), st.builds(Totality, varset),
             st.builds(FileIndependence, varset), st.builds(PermSymmetry, perm, varset),
             st.builds(FileSymmetry, file, file, user)]
    axioms = []
    for kind in kinds:   # every kind at least once, then a few more of any kind
        axioms.append(draw(kind))
    axioms += draw(st.lists(st.one_of(kinds), max_size=6))
    weighted = tuple((a, draw(st.fractions() if a.equality else st.fractions(min_value=0)))
                     for a in draw(st.permutations(axioms)))
    fractions = st.fractions()
    return Certificate(n, k, draw(st.integers(1, 2)), tuple(demands), weighted,
                       draw(fractions), draw(fractions), draw(fractions))


@settings(max_examples=30, deadline=None)
@given(certificates())
def test_text_round_trips(cert):
    text = serialize_certificate(cert)
    assert parse_certificate(text) == cert
    assert serialize_certificate(parse_certificate(text)) == text


@functools.cache
def _generated(n: int, k: int) -> Certificate:
    return (case1_certificate if in_case1_range(n, k) else case2_certificate)(n, k)


_SHIFT = st.tuples(st.just("shift"), st.integers(0, 10**6),
                   st.fractions(max_denominator=6).filter(bool))
_EDIT = st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 4), (2, 5), (4, 7)]), st.lists(st.one_of(_SHIFT, _EDIT), max_size=4))
def test_mutations_end_in_a_verdict_or_a_refusal(pair, edits):
    cert = _generated(*pair)
    axioms = list(cert.axioms)
    for op, where, *delta in edits:
        i = where % len(axioms)
        if op == "shift":
            axioms[i] = (axioms[i][0], axioms[i][1] + delta[0])
        elif op == "delete":
            del axioms[i]
        else:
            axioms.insert(i, axioms[i])
    mutated = Certificate(cert.n, cert.k, cert.case, cert.demands, tuple(axioms),
                          cert.target_m, cert.target_r, cert.target_rhs)
    assert parse_certificate(serialize_certificate(mutated)) == mutated
    try:
        report = check_certificate(mutated)
    except CachewrightError:
        return
    assert report.verdict in ("PASS", "FAIL")
    assert report.ok == (not report.reason)
    if not edits:
        assert report.ok
