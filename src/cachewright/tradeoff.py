"""Rate-memory tradeoff curves: exact closed forms, envelopes, CSV emission.

Each bound family of converse.tightness.FAMILIES is exact on the line from its
corner up to N(K-1)/K (at 2N = K+1 the two lines coincide). Beyond N(K-1)/K
the classical R(M) = 1 - M/N takes over; for a single file the exact curve is
simply 1 - M on all of [0, 1]. Everything is carried as exact rationals.
exact_regions and assemble_known_curve import converse.tightness when called, so
importing this module loads none of the converse package.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import merge
from itertools import groupby
from typing import Iterator, NamedTuple, Sequence

from .errors import DegenerateInput, OutOfRange, OutsideCharacterizedRegion

Point = tuple[Fraction, Fraction]


class Segment(NamedTuple):
    m_lo: Fraction
    m_hi: Fraction
    intercept: Fraction
    slope: Fraction
    provenance: str

    def value(self, m: Fraction) -> Fraction:
        return self.intercept + self.slope * m


class _TradeoffCurve(NamedTuple):
    segments: tuple[Segment, ...]
    vertices: tuple[tuple[Fraction, Fraction, str], ...] = ()


class TradeoffCurve(_TradeoffCurve):
    """Contiguous convex non-increasing piecewise-linear segments."""

    __slots__ = ()

    def __new__(cls, segments: tuple[Segment, ...], vertices: tuple = ()):
        for seg in segments:
            if not seg.m_lo < seg.m_hi:
                raise DegenerateInput(f"empty segment [{seg.m_lo}, {seg.m_hi}]")
            if seg.slope > 0:
                raise DegenerateInput("rate must be non-increasing in memory")
        for left, right in zip(segments, segments[1:]):
            if left.m_hi != right.m_lo:
                raise DegenerateInput("segments not contiguous")
            if left.value(left.m_hi) != right.value(right.m_lo):
                raise DegenerateInput("segments disagree at a junction")
            if left.slope > right.slope:
                raise DegenerateInput("curve is not convex")
        return super().__new__(cls, segments, vertices)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        if not self.segments:
            raise DegenerateInput("the curve is empty: it has no segments")
        return self.segments[0].m_lo, self.segments[-1].m_hi

    def evaluate(self, m) -> Fraction:
        m = Fraction(m)
        lo, hi = self.domain
        if not lo <= m <= hi:
            raise OutOfRange(f"M={m} outside curve domain [{lo}, {hi}]")
        return self.segment_at(m).value(m)

    def segment_at(self, m: Fraction) -> Segment:
        for seg in self.segments:
            if seg.m_lo <= m < seg.m_hi:
                return seg
        if not self.segments:
            raise DegenerateInput("the curve is empty: it has no segments")
        return self.segments[-1]


def _cross(a: Point, b: Point, c: Point) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def lower_envelope(points: Sequence[Point]) -> TradeoffCurve:
    """Lower convex hull of (M, R) points, exact rational arithmetic.

    Points strictly above a chord between neighbours are dropped; collinear
    interior points are merged into one segment, so consecutive segment
    slopes strictly increase. The vertices carry the empty tag.
    """
    best: dict[Fraction, Fraction] = {}
    for m, r in points:
        m, r = Fraction(m), Fraction(r)
        if m not in best or r < best[m]:
            best[m] = r
    if len(best) < 2:
        raise DegenerateInput("need at least two distinct memory values")

    hull: list[tuple[Fraction, Fraction, str]] = []
    for m, r in sorted(best.items()):
        while len(hull) >= 2 and _cross(hull[-2][:2], hull[-1][:2], (m, r)) <= 0:
            hull.pop()
        hull.append((m, r, ""))

    segments = [_chord(a[:2], b[:2], "memory-sharing") for a, b in zip(hull, hull[1:])]
    return TradeoffCurve(tuple(segments), tuple(hull))


def exact_regions(n: int, k: int) -> list[Segment]:
    """The memory regions where the exact tradeoff is known, with formulas."""
    from .converse.tightness import FAMILIES, bound_line

    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    regions = []
    man_m = Fraction(n * (k - 1), k)
    if n == 1 and k >= 2:  # M + R >= 1: a cache and one broadcast must hold the file
        regions.append(Segment(Fraction(0), man_m, Fraction(1), Fraction(-1), "yu"))
    regions += [Segment(f.corner(n, k)[0], man_m, *bound_line(f.target(n, k)),
                        f"theorem-case{f.case}") for f in FAMILIES if f.in_range(n, k)]
    regions.append(Segment(man_m, Fraction(n), Fraction(1), -Fraction(1, n), "man"))
    return regions


def exact_tradeoff(n: int, k: int, memory) -> Fraction:
    """R*(M) where it is characterized; clamped at 0 for M >= N."""
    regions = exact_regions(n, k)  # refuses an (N, K) outside 1 <= N <= K first
    m = Fraction(memory)
    if m < 0:
        raise OutOfRange("memory cannot be negative")
    if m >= n:
        return Fraction(0)
    values = [reg.value(m) for reg in regions
              if reg.m_lo <= m <= reg.m_hi]
    if not values:
        raise OutsideCharacterizedRegion(
            f"M={m} below the characterized region for ({n}, {k})")
    return min(values)


def assemble_known_curve(n: int, k: int) -> TradeoffCurve:
    """Best known achievable curve from the assembled corner points.

    Sources: the full-library corner and the coded-delivery corner of the
    N - NM line, every uncoded-prefetching corner, the coded-placement
    scheme's point where it applies, and full caching at (N, 0).

    Each segment is the chord between two consecutive breakpoints, tagged by
    the first known line whose span holds it and whose line is its own. The
    lines are tried in one list: the chen chord on [0, 1/K], exact_regions in
    order, then the K chords between uncoded-prefetching corners. A segment
    no line holds is memory-sharing.
    """
    from .converse.tightness import FAMILIES, rate_chen, yu_point

    if not 1 <= n <= k or k < 2:
        raise OutOfRange(f"need 1 <= N <= K and K >= 2, got ({n}, {k})")
    chen = [(Fraction(0), Fraction(n)), (Fraction(1, k), rate_chen(n, k, Fraction(1, k)))]
    named = [(chen[0], "chen-left"), (chen[1], "chen-corner")]
    named += [(yu_point(n, k, r), f"yu-r{r}") for r in range(1, k + 1)]
    corners = [(f.corner(n, k), f.tag(n, k)) for f in FAMILIES if f.in_range(n, k)]
    labels: dict[Point, list[str]] = {}
    for point, label in named + corners:
        labels.setdefault(point, []).append(label)
    hull = lower_envelope(list(labels))

    # the breakpoints: hull vertices, tagged by their named points, plus cut points
    cuts = {Fraction(1, k): "chen-corner", Fraction(n * (k - 1), k): "man-corner"}
    cuts.update((m, tag) for (m, _), tag in corners)
    if n == 1:   # the few-files corner N(K-2)/K at N = 1; M + R >= 1 is exact on all of [0, 1]
        cuts[Fraction(k - 2, k)] = f"yu-r{k - 2}"
    lo, hi = hull.domain
    tagged = {m: (r, list(labels[m, r])) for m, r, _ in hull.vertices}
    for m, cut in cuts.items():
        if lo < m < hi:
            if m not in tagged:
                tagged[m] = (hull.evaluate(m), [])
            tagged[m][1].append(cut)
    vertices = [(m, r, "+".join(dict.fromkeys(tags))) for m, (r, tags) in sorted(tagged.items())]

    yu = [yu_point(n, k, r) for r in range(k + 1)]
    lines = [_chord(*chen, "chen"), *exact_regions(n, k)]
    lines += [_chord(a, b, "yu") for a, b in zip(yu, yu[1:])]
    segments = []
    for (a, ra, _), (b, rb, _) in zip(vertices, vertices[1:]):
        piece = _chord((a, ra), (b, rb), "memory-sharing")
        tag = next((line.provenance for line in lines if line.m_lo <= a and b <= line.m_hi
                    and (line.intercept, line.slope) == (piece.intercept, piece.slope)),
                   piece.provenance)
        segments.append(Segment(a, b, piece.intercept, piece.slope, tag))
    return TradeoffCurve(tuple(segments), tuple(vertices))


def _chord(a: Point, b: Point, provenance: str) -> Segment:
    slope = (b[1] - a[1]) / (b[0] - a[0])
    return Segment(a[0], b[0], a[1] - slope * a[0], slope, provenance)


def _decimal(x: Fraction) -> str:
    return f"{float(x):.10g}"


CSV_HEADER = "M_exact,M_decimal,R_exact,R_decimal,provenance"
MAX_SAMPLES = 10**6   # the rows stream, but 10**6 of them take about 26 s


def csv_lines(curve: TradeoffCurve, sample_count: int) -> Iterator[str]:
    """The CSV one LF-ended line at a time: rows at segment endpoints plus a uniform
    sample grid, in M order.

    A row's tag is the first nonempty tag of a vertex at its M, else the
    provenance of the segment [m_lo, m_hi) holding M (the last one at the
    right end). The grid is merged with the segment ends as it is made, so
    memory does not grow with sample_count, and the rows walk the segments
    once: at a junction both neighbours give the same R, as TradeoffCurve checks.
    """
    if sample_count < 2:
        raise OutOfRange("need at least two samples")
    if sample_count > MAX_SAMPLES:
        raise OutOfRange(f"need at most {MAX_SAMPLES} samples")
    yield CSV_HEADER + "\n"
    if not curve.segments:
        return
    lo, hi = curve.domain
    ends = sorted({seg.m_lo for seg in curve.segments} | {hi})
    grid = (lo + Fraction(t, sample_count - 1) * (hi - lo) for t in range(sample_count))
    tags = {m: tag for m, _, tag in reversed(curve.vertices) if tag}
    segments, i = curve.segments, 0
    for m, _ in groupby(merge(ends, grid)):
        while i + 1 < len(segments) and m >= segments[i].m_hi:
            i += 1
        seg = segments[i]
        r = seg.value(m)
        yield f"{m},{_decimal(m)},{r},{_decimal(r)},{tags.get(m, seg.provenance)}\n"


def emit_csv(curve: TradeoffCurve, sample_count: int) -> str:
    """The whole CSV of csv_lines as one string."""
    return "".join(csv_lines(curve, sample_count))
