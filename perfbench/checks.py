"""Output checks for every benchmark op, computed apart from the program.

Each check raises CheckFailed with a one-line reason. The expected values
come from closed forms in the paper's abstract and README, from brute-force
counting, or from properties the method must have; none is read from a
stored copy of the program's output, and none calls the program's own
formula for the value it checks.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class CheckFailed(Exception):
    pass


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# --- closed forms -----------------------------------------------------------

def coded_point(n: int, k: int) -> tuple[Fraction, Fraction]:
    """(M_A, R) = ((NK(K-2)+1)/(K(K-1)), 1/(K-1)) from the abstract."""
    return Fraction(n * k * (k - 2) + 1, k * (k - 1)), Fraction(1, k - 1)


def man_point(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The Maddah-Ali--Niesen corner (N(K-1)/K, 1/K)."""
    return Fraction(n * (k - 1), k), Fraction(1, k)


def demand_set(n: int, k: int) -> list[tuple[int, ...]]:
    """D by brute force: the demands in [N]^K that request every file."""
    return [d for d in itertools.product(range(1, n + 1), repeat=k) if len(set(d)) == n]


def many_files(n: int, k: int) -> bool:
    """The many-files regime ceil((K+1)/2) <= N <= K, N >= 2."""
    return 2 <= n <= k and 2 * n >= k + 1


def few_files(n: int, k: int) -> bool:
    """The few-files regime 2 <= N, 2N - 1 <= K."""
    return 2 <= n <= k and 2 * n - 1 <= k


def reference_target(case: int, n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(t_M, t_R, rhs) of the bound the case proves, up to positive scaling.

    Case 1: K M + K(N-1) R >= KN - 1.
    Case 2: K(K+1)/(2N) M + K(K-1)/2 R >= (K^2+K-2)/2.
    """
    if case == 1:
        return Fraction(k), Fraction(k * (n - 1)), Fraction(k * n - 1)
    return Fraction(k * (k + 1), 2 * n), Fraction(k * (k - 1), 2), Fraction(k * k + k - 2, 2)


def corner(case: int, n: int, k: int) -> tuple[Fraction, Fraction]:
    """The achievable point each bound must meet exactly.

    Case 1 meets the coded-placement point; case 2 meets the
    uncoded-prefetching corner at M = N(K-2)/K, whose rate is 2/(K-1).
    """
    if case == 1:
        return coded_point(n, k)
    return Fraction(n * (k - 2), k), Fraction(2, k - 1)


# --- roundtrip --------------------------------------------------------------

def _printed_fraction(stdout: str, name: str) -> Fraction:
    for line in stdout.splitlines():
        if line.startswith(f"{name} = "):
            return Fraction(line[len(name) + 3:].strip())
    raise CheckFailed(f"no '{name} =' line in the output")


def check_roundtrip(rc: int, stdout: str, decoded: bytes, source: bytes,
                    n: int, k: int) -> None:
    expect(rc == 0, f"roundtrip exited {rc}")
    memory, rate = coded_point(n, k)
    got_m = _printed_fraction(stdout, "M")
    got_r = _printed_fraction(stdout, "R")
    expect(got_m == memory, f"printed M = {got_m}, formula gives {memory}")
    expect(got_r == rate, f"printed R = {got_r}, formula gives {rate}")
    expect(len(decoded) == len(source),
           f"decoded {len(decoded)} bytes, source has {len(source)}")
    if decoded != source:
        at = next(i for i, (a, b) in enumerate(zip(decoded, source)) if a != b)
        raise CheckFailed(f"decoded file differs from the source at byte {at}")


# --- verify -----------------------------------------------------------------

def check_verify(rc: int, stdout: str, n: int, k: int, scheme: str,
                 demands: int) -> None:
    expect(rc == 0, f"verify {scheme} ({n},{k}) exited {rc}")
    report = json.loads(stdout)
    expect(report["config"]["n"] == n and report["config"]["k"] == k
           and report["config"]["scheme"] == scheme,
           f"report is for {report['config']}, not {scheme} ({n},{k})")
    expect(report["failures"] == [], f"{len(report['failures'])} decode failures")
    expect(report["demands_checked"] == demands,
           f"demands_checked = {report['demands_checked']}, |D| = {demands}")
    memory, rate = coded_point(n, k) if scheme == "new" else man_point(n, k)
    got = (Fraction(report["measured"]["M"]), Fraction(report["measured"]["R"]))
    expect(got == (memory, rate), f"measured (M, R) = {got}, expected {(memory, rate)}")


# --- certificates and curves -------------------------------------------------

def proportional(target, reference) -> bool:
    """True when target = c * reference for some c > 0."""
    scale = target[2] / reference[2]
    return scale > 0 and all(t == scale * r for t, r in zip(target, reference))


def _target(cert) -> tuple[Fraction, Fraction, Fraction]:
    return cert.target_m, cert.target_r, cert.target_rhs


def check_certificate_pair(case: int, n: int, k: int, cert, report, parsed,
                           parsed_report) -> None:
    """A generated certificate, its check, and its serialize/parse round trip."""
    expect((cert.n, cert.k, cert.case) == (n, k, case),
           f"certificate header ({cert.n},{cert.k}) case {cert.case}, "
           f"expected ({n},{k}) case {case}")
    expect(report.ok, f"case {case} ({n},{k}) certificate fails: {report.reason}")
    expect(parsed_report.ok,
           f"parsed case {case} ({n},{k}) certificate fails: {parsed_report.reason}")
    expect(parsed == cert, f"parsed case {case} ({n},{k}) certificate differs from the original")
    target = _target(cert)
    expect(proportional(target, reference_target(case, n, k)),
           f"case {case} ({n},{k}) target {cert.target_text()} is not a positive "
           f"multiple of {reference_target(case, n, k)}")
    m, r = corner(case, n, k)
    expect(target[0] * m + target[1] * r == target[2],
           f"case {case} ({n},{k}) bound misses its corner ({m}, {r})")


def check_tightness(report, cases, n: int, k: int) -> None:
    entries = {e.case: e for e in report.entries}
    expect(sorted(entries) == sorted(cases),
           f"tightness covers cases {sorted(entries)}, expected {sorted(cases)}")
    for case in cases:
        e = entries[case]
        m, r = corner(case, n, k)
        expect((e.memory, e.bound_rate, e.achievable_rate) == (m, r, r),
               f"case {case} ({n},{k}) tightness ({e.memory}, {e.bound_rate}, "
               f"{e.achievable_rate}) != ({m}, {r}, {r})")


def _above_lines(points, lines, what: str) -> None:
    for m, r in points:
        for t_m, t_r, rhs in lines:
            expect(t_m * m + t_r * r >= rhs,
                   f"{what} ({m}, {r}) lies below {t_m}M + {t_r}R >= {rhs}")


def _convex_nonincreasing(points, n: int, what: str) -> None:
    expect(points[0] == (0, n), f"{what} starts at {points[0]}, not (0, {n})")
    expect(points[-1] == (n, 0), f"{what} ends at {points[-1]}, not ({n}, 0)")
    for (m0, r0), (m1, r1) in zip(points, points[1:]):
        expect(m0 < m1 and r1 <= r0, f"{what} not increasing in M / non-increasing "
                                     f"in R at ({m0}, {r0}) -> ({m1}, {r1})")
    for a, b, c in zip(points, points[1:], points[2:]):
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        expect(cross >= 0, f"{what} is not convex at ({b[0]}, {b[1]})")


def csv_points(text: str) -> list[tuple[Fraction, Fraction]]:
    lines = text.splitlines()
    expect(lines[0].split(",")[0] == "M_exact" and lines[0].split(",")[2] == "R_exact",
           f"unexpected CSV header {lines[0]!r}")
    points = []
    for line in lines[1:]:
        cells = line.split(",")
        points.append((Fraction(cells[0]), Fraction(cells[2])))
    return points


def check_curve(curve, csv_text: str, certs, n: int) -> None:
    """Curve vertices and CSV rows: convex, (0,N) to (N,0), above every bound."""
    lines = [_target(c) for c in certs]
    vertices = [(m, r) for m, r, _ in curve.vertices]
    rows = csv_points(csv_text)
    _above_lines(vertices, lines, "curve vertex")
    _above_lines(rows, lines, "CSV row")
    _convex_nonincreasing(vertices, n, "curve")
    _convex_nonincreasing(rows, n, "CSV")
