from __future__ import annotations

import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from cachewright.converse import check_certificate, parse_certificate, perturbed
from cachewright.converse.case1 import case1_target, in_case1_range
from cachewright.converse.case2 import case2_target, in_case2_range
from cachewright.converse.tightness import (
    FAMILIES,
    bound_line,
    rate_chen,
    rate_yu,
    scheme_point,
    yu_point,
)
from cachewright.errors import DegenerateInput, OutOfRange, OutsideCharacterizedRegion
from cachewright.tradeoff import (
    CSV_HEADER,
    assemble_known_curve,
    csv_lines,
    emit_csv,
    exact_regions,
    exact_tradeoff,
    lower_envelope,
    Segment,
    TradeoffCurve,
)

F = Fraction


def case1_line(n, k):
    return bound_line(case1_target(n, k))


def case2_line(n, k):
    return bound_line(case2_target(n, k))


def test_case_ranges():
    assert in_case1_range(3, 4) and in_case1_range(4, 4) and not in_case1_range(2, 4)
    assert in_case2_range(2, 4) and not in_case2_range(3, 4)
    assert in_case1_range(2, 3) and in_case2_range(2, 3)  # odd-K shared boundary
    assert not in_case2_range(1, 4)


def test_lines_agree_at_odd_boundary():
    for k in (3, 5, 7, 9):
        n = (k + 1) // 2
        assert case1_line(n, k) == case2_line(n, k)


def test_case1_line_closed_form():
    for k in range(2, 9):
        for n in range(max(2, (k + 2) // 2), k + 1):
            assert case1_line(n, k) == (F(k * n - 1, k * (n - 1)), -F(1, n - 1))


def test_exact_tradeoff_3_4():
    for m in (F(25, 12), F(13, 6), F(9, 4)):
        assert exact_tradeoff(3, 4, m) == F(11, 8) - m / 2
    assert exact_tradeoff(3, 4, 3) == 0
    with pytest.raises(OutsideCharacterizedRegion):
        exact_tradeoff(3, 4, F(3, 2))


def test_exact_tradeoff_2_4():
    for m in (F(1), F(5, 4), F(3, 2)):
        assert exact_tradeoff(2, 4, m) == F(3, 2) - F(5, 6) * m
    assert exact_tradeoff(2, 4, 2) == 0
    with pytest.raises(OutsideCharacterizedRegion):
        exact_tradeoff(2, 4, F(1, 2))


def test_exact_tradeoff_man_region():
    assert exact_tradeoff(3, 4, F(5, 2)) == 1 - F(5, 2) / 3
    assert exact_tradeoff(2, 4, F(7, 4)) == 1 - F(7, 4) / 2


def test_exact_tradeoff_single_file():
    # with one file the exact curve is 1 - M; the few-files line is wrong here
    for k in (2, 3, 5):
        for m in (F(k - 2, k), F(k - 1, k), F(1, 1)):
            assert exact_tradeoff(1, k, m) == 1 - m


def test_one_file_one_user_is_the_man_chord_alone():
    # at K = 1 the origin (0, 1) is the MAN corner, so no N = 1 line may be built there
    assert exact_regions(1, 1) == [Segment(F(0), F(1), F(1), F(-1), "man")]
    assert exact_tradeoff(1, 1, F(1, 2)) == F(1, 2)


def single_file_certificate(k):
    """M + R >= 1 for one file: user 1's cache and the one broadcast decode W1."""
    return parse_certificate("\n".join([
        f"NK 1 {k} CASE 0",
        "D 1 " + " ".join(["1"] * k),
        "AX CACHE 1 MUL 1/1",
        "AX RATE 1 MUL 1/1",
        "AX SUBMOD Z1 X1 MUL 1/1",
        "AX DECODE 1 1 Z1,X1 MUL -1/1",
        "AX TOTAL W1,Z1,X1 MUL 1/1",
        "TARGET 1/1 M + 1/1 R >= 1/1",
    ]))


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_single_file_is_exact_from_zero_memory(k):
    cert = single_file_certificate(k)
    assert check_certificate(cert).ok
    for index in range(len(cert.axioms)):
        assert not check_certificate(perturbed(cert, index)).ok
    assert exact_regions(1, k)[0].m_lo == 0
    for m in (F(0), F(1, k), F(k - 1, k), F(1)):
        assert exact_tradeoff(1, k, m) == 1 - m == assemble_known_curve(1, k).evaluate(m)


def test_exact_matches_scheme_point():
    for k in range(2, 9):
        for n in range((k + 1 + 1) // 2, k + 1):
            if n < 2:
                continue
            m_a, rate = scheme_point(n, k)
            assert exact_tradeoff(n, k, m_a) == rate == F(1, k - 1)


def test_exact_at_man_corner_from_both_lines():
    for n, k in [(3, 4), (2, 4), (2, 3), (4, 7), (5, 8)]:
        man_m = F(n * (k - 1), k)
        assert exact_tradeoff(n, k, man_m) == F(1, k)
        if in_case1_range(n, k):
            b, a = case1_line(n, k)
            assert b + a * man_m == F(1, k)
        if in_case2_range(n, k):
            b, a = case2_line(n, k)
            assert b + a * man_m == F(1, k)


def test_case2_line_through_yu_corners():
    # passes through (N(K-2)/K, 2/(K-1)) and (N(K-1)/K, 1/K)
    for n, k in [(2, 4), (2, 5), (3, 6), (4, 8)]:
        b, a = case2_line(n, k)
        assert b + a * F(n * (k - 2), k) == F(2, k - 1) == rate_yu(n, k, k - 2)
        assert b + a * F(n * (k - 1), k) == F(1, k)
        assert a == -F(k + 1, n * (k - 1))


def test_lower_envelope_single_segment():
    curve = lower_envelope([(F(25, 12), F(1, 3)), (F(9, 4), F(1, 4))])
    assert len(curve.segments) == 1
    seg = curve.segments[0]
    assert (seg.intercept, seg.slope) == (F(11, 8), -F(1, 2))


def test_lower_envelope_full_caching_line():
    curve = lower_envelope([(F(0), F(3)), (F(3), F(0))])
    assert len(curve.segments) == 1
    assert curve.segments[0].slope == -1


def test_lower_envelope_drops_dominated_point():
    # (5/4, 1/2) sits above the chord joining its neighbours (value 11/24)
    chord = lower_envelope([(F(1), F(2, 3)), (F(3, 2), F(1, 4))])
    assert chord.evaluate(F(5, 4)) == F(11, 24) < F(1, 2)
    curve = lower_envelope([(F(1), F(2, 3)), (F(3, 2), F(1, 4)), (F(5, 4), F(1, 2))])
    assert len(curve.segments) == 1
    assert [v[:2] for v in curve.vertices] == [(F(1), F(2, 3)), (F(3, 2), F(1, 4))]


@pytest.mark.parametrize("count", [3, 4, 7])
def test_lower_envelope_merges_collinear_points_into_one_segment(count):
    # count points on R = 2 - M/2, given out of order: one segment, its vertices the two ends
    pts = [(F(i, 3), 2 - F(i, 6)) for i in range(count)]
    curve = lower_envelope(pts[1:] + pts[:1])
    assert len(curve.segments) == 1
    assert (curve.segments[0].intercept, curve.segments[0].slope) == (F(2), -F(1, 2))
    assert [v[:2] for v in curve.vertices] == [pts[0], pts[-1]]


def test_lower_envelope_strictly_convex_slopes():
    pts = [(F(0), F(3)), (F(1, 4), F(9, 4)), (F(3, 4), F(3, 2)),
           (F(3, 2), F(2, 3)), (F(25, 12), F(1, 3)), (F(9, 4), F(1, 4)), (F(3), F(0))]
    curve = lower_envelope(pts)
    slopes = [seg.slope for seg in curve.segments]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_lower_envelope_degenerate():
    with pytest.raises(DegenerateInput):
        lower_envelope([(F(1), F(1))])
    with pytest.raises(DegenerateInput):
        lower_envelope([(F(1), F(1)), (F(1), F(2))])
    with pytest.raises(DegenerateInput):
        lower_envelope([(F(0), F(1)), (F(1), F(2))])  # increasing rate


def test_curve_validation():
    with pytest.raises(DegenerateInput):
        TradeoffCurve((Segment(F(0), F(1), F(1), F(-1), "a"),
                       Segment(F(2), F(3), F(1), F(-1), "b")))


@pytest.mark.parametrize("segments, reason", [
    (((0, 0, 1, -1),), r"empty segment \[0, 0\]"),
    (((0, 1, 1, 1),), "rate must be non-increasing in memory"),
    (((0, 1, 2, -1), (1, 2, 3, -1)), "segments disagree at a junction"),
    (((0, 1, 2, "-1/2"), (1, 2, "5/2", -1)), "curve is not convex"),
])
def test_curve_validation_names_each_defect(segments, reason):
    with pytest.raises(DegenerateInput, match=f"^{reason}$"):
        TradeoffCurve(tuple(Segment(*map(F, s), "a") for s in segments))


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_a_curve_is_a_read_only_record_that_copies_as_itself(how):
    curve = assemble_known_curve(3, 4)
    back = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
            "deepcopy": copy.deepcopy}[how](curve)
    assert type(back) is TradeoffCurve and back == curve and repr(back) == repr(curve)
    for name in ("segments", "vertices", "domain", "other"):
        with pytest.raises(AttributeError):
            setattr(back, name, ())


def test_replacing_a_curve_field_validates_again():
    curve = lower_envelope([(F(0), F(2)), (F(1), F(1)), (F(2), F(0))])
    assert curve._replace(vertices=()) == TradeoffCurve(curve.segments)
    bent = (Segment(F(0), F(1), F(2), F(-1, 2), "a"), Segment(F(1), F(2), F(5, 2), F(-1), "a"))
    with pytest.raises(DegenerateInput, match="^curve is not convex$"):
        curve._replace(segments=bent)


def test_assemble_3_4():
    curve = assemble_known_curve(3, 4)
    segs = {(s.m_lo, s.m_hi): s for s in curve.segments}
    exact_seg = segs[(F(25, 12), F(9, 4))]
    assert exact_seg.provenance == "theorem-case1"
    assert (exact_seg.intercept, exact_seg.slope) == (F(11, 8), -F(1, 2))
    chen_seg = segs[(F(0), F(1, 4))]
    assert chen_seg.provenance == "chen"
    verts = {(m, r) for m, r, _ in curve.vertices}
    assert (F(1, 4), F(9, 4)) in verts
    assert (F(9, 4), F(1, 4)) in verts
    assert (F(25, 12), F(1, 3)) in verts
    assert {m: tag for m, _, tag in curve.vertices}[F(25, 12)] == "theorem-1-point"
    assert curve.domain == (F(0), F(3))
    assert curve.evaluate(F(3)) == 0


def test_assemble_2_4():
    curve = assemble_known_curve(2, 4)
    segs = {(s.m_lo, s.m_hi): s for s in curve.segments}
    exact_seg = segs[(F(1), F(3, 2))]
    assert exact_seg.provenance == "theorem-case2"
    assert (exact_seg.intercept, exact_seg.slope) == (F(3, 2), -F(5, 6))
    verts = {(m, r) for m, r, _ in curve.vertices}
    assert {(F(1, 4), F(3, 2)), (F(3, 2), F(1, 4)), (F(1), F(2, 3))} <= verts
    # the r=1 uncoded corner (1/2, 5/4) is beaten by memory sharing
    assert (F(1, 2), F(5, 4)) not in verts


def test_assembled_curve_matches_exact_region():
    # two independent routes: hull of corner points vs closed-form lines
    for k in range(2, 9):
        for n in range(1, k + 1):
            curve = assemble_known_curve(n, k)
            m_lo = min(reg.m_lo for reg in exact_regions(n, k))
            samples = [m_lo + F(t, 7) * (n - m_lo) for t in range(8)]
            for m in samples:
                assert curve.evaluate(m) == exact_tradeoff(n, k, m), (n, k, m)


def test_new_point_improves_on_prior_envelope():
    # the coded-placement corner beats the uncoded-prefetching chord strictly
    # inside the many-files regime; at 2N = K+1 the two coincide
    for k in range(3, 8):
        for n in range(2, k + 1):
            if not in_case1_range(n, k):
                continue
            m_a, rate = scheme_point(n, k)
            (m0, r0), (m1, r1) = yu_point(n, k, k - 2), yu_point(n, k, k - 1)
            chord = r0 + (r1 - r0) / (m1 - m0) * (m_a - m0)
            if 2 * n == k + 1:
                assert rate == chord, (n, k)
            else:
                assert rate < chord, (n, k)


def test_the_uncoded_envelope_at_m_a_exceeds_the_scheme_by_a_closed_form():
    # the lower envelope of the yu_point corners is the exact tradeoff under uncoded placement
    # (Yu, Maddah-Ali and Avestimehr, IEEE T-IT 2018; cited, not checked); at M_A it exceeds
    # 1/(K-1) by (2N-K-1)/(N K (K-1)^2) for N >= 2, and by the sign of 2N-K-1 for every N
    def sign(x):
        return (x > 0) - (x < 0)

    counts = {1: 0, -1: 0, 0: 0}
    for k in range(2, 41):
        for n in range(1, k + 1):
            m_a, rate = scheme_point(n, k)
            gap = lower_envelope([yu_point(n, k, r) for r in range(k + 1)]).evaluate(m_a) - rate
            if n >= 2:
                assert gap == F(2 * n - k - 1, n * k * (k - 1) ** 2), (n, k)
            assert sign(gap) == sign(2 * n - k - 1), (n, k)
            counts[sign(gap)] += 1
    assert counts == {1: 400, -1: 400, 0: 19}


def test_emit_csv_endpoints():
    text = emit_csv(assemble_known_curve(3, 4), 2)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert any(row.startswith("25/12,") and ",1/3," in row and row.endswith("theorem-1-point")
               for row in lines[1:])
    assert lines[-1].startswith("3,3,0,0,")


def _reference_csv(curve: TradeoffCurve, sample_count: int) -> str:
    """emit_csv row by row: evaluate M, then a vertex's tag or its segment's provenance."""
    lo, hi = curve.domain
    ms = {seg.m_lo for seg in curve.segments} | {hi}
    ms |= {lo + F(t, sample_count - 1) * (hi - lo) for t in range(sample_count)}
    lines = [CSV_HEADER]
    for m in sorted(ms):
        r = curve.evaluate(m)
        tag = next((t for vm, _, t in curve.vertices if vm == m and t), None)
        tag = tag or curve.segment_at(m).provenance
        lines.append(f"{m},{float(m):.10g},{r},{float(r):.10g},{tag}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", range(2, 20))
def test_emit_csv_matches_the_row_by_row_reference(k):
    for n in range(1, k + 1):
        curve = assemble_known_curve(n, k)
        for samples in (2, 3, 33, 101):
            assert emit_csv(curve, samples) == _reference_csv(curve, samples), (n, k, samples)


def _family_tags(n: int, k: int, curve: TradeoffCurve) -> list[str]:
    """Segment tags by the family rule: the first family of known lines whose contiguous
    pieces cover the segment, each on the segment's line there; else memory-sharing."""
    def chord(a, b, provenance):
        slope = (b[1] - a[1]) / (b[0] - a[0])
        return Segment(a[0], b[0], a[1] - slope * a[0], slope, provenance)

    def names(family, seg):
        over = [p for p in family if p.m_lo < seg.m_hi and seg.m_lo < p.m_hi]
        return bool(over) and over[0].m_lo <= seg.m_lo and seg.m_hi <= over[-1].m_hi and all(
            (p.intercept, p.slope) == (seg.intercept, seg.slope) for p in over)

    yu = [yu_point(n, k, r) for r in range(k + 1)]
    families = [[chord((F(0), F(n)), (F(1, k), rate_chen(n, k, F(1, k))), "chen")]]
    families += [[region] for region in exact_regions(n, k)]
    families.append([chord(a, b, "yu") for a, b in zip(yu, yu[1:])])
    return [next((fam[0].provenance for fam in families if names(fam, seg)), "memory-sharing")
            for seg in curve.segments]


@pytest.mark.parametrize("k", range(2, 31))
def test_segment_tags_match_the_family_rule(k):
    for n in range(1, k + 1):
        curve = assemble_known_curve(n, k)
        assert [seg.provenance for seg in curve.segments] == _family_tags(n, k, curve), (n, k)


def test_csv_lines_stream_in_memory_that_does_not_grow_with_the_samples():
    curve, samples = assemble_known_curve(3, 4), 2 * 10**4
    lines = csv_lines(curve, samples)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows > samples
    assert peak < 2 * 2**20, peak


def test_emit_csv_sample_value():
    text = emit_csv(assemble_known_curve(2, 4), 9)
    target = [row for row in text.strip().split("\n") if row.startswith("5/4,")]
    assert target and ",11/24," in target[0]


def test_emit_csv_empty_curve():
    assert emit_csv(TradeoffCurve(()), 5) == CSV_HEADER + "\n"
    with pytest.raises(OutOfRange):
        emit_csv(TradeoffCurve(()), 1)


@pytest.mark.parametrize("read", [lambda c: c.domain, lambda c: c.evaluate(0),
                                  lambda c: c.segment_at(F(0))],
                         ids=["domain", "evaluate", "segment_at"])
def test_an_empty_curve_is_refused_where_it_is_read(read):
    with pytest.raises(DegenerateInput, match="^the curve is empty: it has no segments$"):
        read(TradeoffCurve(()))


def test_csv_lf_endings():
    text = emit_csv(assemble_known_curve(2, 2), 3)
    assert "\r" not in text and text.endswith("\n")


def test_gomez_point_3_3_is_left_open():
    # Gomez-Vilardebo's coded-prefetching line (N^2-1)/N - (N-1)M gives 5/3 at
    # (3, 3), M = 1/2; nothing here checks that scheme, so the curve keeps the
    # memory-sharing chord and the point stays outside the characterized region
    curve = assemble_known_curve(3, 3)
    assert curve.evaluate(F(1, 2)) == F(7, 4)
    assert curve.segment_at(F(1, 2)).provenance == "memory-sharing"
    with pytest.raises(OutsideCharacterizedRegion):
        exact_tradeoff(3, 3, F(1, 2))


SEGMENT_TAGS = {"chen", "yu", "theorem-case1", "theorem-case2", "man", "memory-sharing"}


def test_tags_are_the_documented_ones():
    for k in range(2, 9):
        for n in range(1, k + 1):
            curve = assemble_known_curve(n, k)
            assert {seg.provenance for seg in curve.segments} <= SEGMENT_TAGS
            tags = {t for _, _, tag in curve.vertices for t in tag.split("+")}
            known = {"chen-left", "chen-corner", "man-corner", "theorem-1-point"}
            known |= {f"yu-r{r}" for r in range(1, k + 1)}
            assert tags <= known, (n, k, tags - known)


def test_exact_segments_lie_on_exact_regions():
    for k in range(2, 9):
        for n in range(1, k + 1):
            for seg in assemble_known_curve(n, k).segments:
                if seg.provenance.startswith("theorem") or seg.provenance == "man":
                    for m in (seg.m_lo, (seg.m_lo + seg.m_hi) / 2, seg.m_hi):
                        assert seg.value(m) == exact_tradeoff(n, k, m), (n, k, seg)


def test_no_family_line_lies_above_an_achievable_vertex():
    # for each theorem that applies: every vertex of the known curve satisfies
    # the certified inequality, and the family's corner is a tagged vertex on the line
    for k in range(2, 17):
        for n in range(2, k + 1):
            curve = assemble_known_curve(n, k)
            rows = [f for f in FAMILIES if f.in_range(n, k)]
            assert rows, (n, k)
            for f in rows:
                t_m, t_r, rhs = f.target(n, k)
                below = [(m, r, tag) for m, r, tag in curve.vertices if t_m * m + t_r * r < rhs]
                assert not below, (n, k, f.case, below)
                m, r = f.corner(n, k)
                assert t_m * m + t_r * r == rhs, (n, k, f.case)
                tag = next(tag for vm, vr, tag in curve.vertices if (vm, vr) == (m, r))
                assert f.tag(n, k) in tag.split("+"), (n, k, f.case, tag)


@pytest.mark.parametrize("m", [F(-1, 4), F(13, 4)])
def test_evaluate_refuses_memory_outside_the_domain(m):
    with pytest.raises(OutOfRange) as exc:
        assemble_known_curve(3, 4).evaluate(m)
    assert str(exc.value) == f"M={m} outside curve domain [0, 3]"


@pytest.mark.parametrize("n, k", [(n, k) for k in range(2, 13) for n in range(1, k + 1)])
def test_vertex_tags_name_only_what_sits_at_the_vertex(n, k):
    named = [((F(0), F(n)), "chen-left"), ((F(1, k), rate_chen(n, k, F(1, k))), "chen-corner")]
    named += [(yu_point(n, k, r), f"yu-r{r}") for r in range(1, k + 1)]
    named += [(f.corner(n, k), f.tag(n, k)) for f in FAMILIES if f.in_range(n, k)]
    cuts = {(F(1, k), "chen-corner"), (F(n * (k - 1), k), "man-corner")}
    cuts |= {(f.corner(n, k)[0], f.tag(n, k)) for f in FAMILIES if f.in_range(n, k)}
    if n == 1:
        cuts.add((F(k - 2, k), f"yu-r{k - 2}"))
    curve = assemble_known_curve(n, k)
    for m, r, tag in curve.vertices:
        assert r == curve.evaluate(m)
        labels = tag.split("+")
        assert len(labels) == len(set(labels)), (m, tag)
        for label in labels:
            assert (m, label) in cuts or ((m, r), label) in named, (m, tag, label)
    hull = lower_envelope([point for point, _ in named])
    assert {(m, r) for m, r, _ in hull.vertices} <= {(m, r) for m, r, _ in curve.vertices}


@pytest.mark.parametrize("call, message", [
    (lambda: exact_regions(5, 4), "need 1 <= N <= K, got (5, 4)"),
    (lambda: exact_regions(0, 4), "need 1 <= N <= K, got (0, 4)"),
    (lambda: exact_tradeoff(3, 4, F(-1, 2)), "memory cannot be negative"),
    (lambda: exact_tradeoff(5, 3, 10), "need 1 <= N <= K, got (5, 3)"),
    (lambda: exact_tradeoff(0, 0, 5), "need 1 <= N <= K, got (0, 0)"),
    (lambda: exact_tradeoff(-1, 3, F(-1, 2)), "need 1 <= N <= K, got (-1, 3)"),
    (lambda: assemble_known_curve(5, 4), "need 1 <= N <= K and K >= 2, got (5, 4)"),
    (lambda: assemble_known_curve(1, 1), "need 1 <= N <= K and K >= 2, got (1, 1)"),
], ids=["regions-n-above-k", "regions-no-file", "negative-memory", "tradeoff-n-above-k",
        "tradeoff-no-user", "tradeoff-negative-n", "curve-n-above-k", "curve-one-user"])
def test_the_curve_functions_refuse_what_they_do_not_describe(call, message):
    with pytest.raises(OutOfRange) as exc:
        call()
    assert str(exc.value) == message


def test_each_exact_region_runs_between_vertices_of_the_curve():
    # both functions read their corners from tightness, so each exact line starts and ends
    # where the curve has a vertex, and the man line starts at the MAN corner yu_point(K-1)
    for k in range(2, 21):
        for n in range(1, k + 1):
            at = {m for m, _, _ in assemble_known_curve(n, k).vertices}
            regions = exact_regions(n, k)
            for region in regions:
                assert region.m_lo in at and region.m_hi in at, (n, k, region)
            man = next(region for region in regions if region.provenance == "man")
            assert (man.m_lo, man.value(man.m_lo)) == yu_point(n, k, k - 1), (n, k)
