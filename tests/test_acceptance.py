"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
All values are exact rationals; no tolerance is involved anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from cachewright.baselines import MAN
from cachewright.coded_placement import decode, deliver, place
from cachewright.converse import (
    case1_certificate,
    case2_certificate,
    check_certificate,
    perturbed,
    tightness_check,
)
from cachewright.converse.case1 import case1_demand_table, case1_sets, in_case1_range
from cachewright.converse.case2 import (
    case2_demand_table,
    case2_sets,
    case2_tail_sets,
    case2_target,
    in_case2_range,
)
from cachewright.converse.tightness import rate_yu, scheme_point
from cachewright.errors import OutOfCaseRange
from cachewright.model import NetworkConfig, split_file
from cachewright.tradeoff import assemble_known_curve
from cachewright.verify import run_verification

F = Fraction


def _report(num: int, ok: bool, summary: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {summary}")


def _ceil_half(k: int) -> int:
    return (k + 2) // 2


def test_criterion_1_achievability_3_4():
    start = time.perf_counter()
    report = run_verification(3, 4, "new")
    wall = time.perf_counter() - start
    ok = (report.ok and report.demands_checked == 36
          and report.memory == F(25, 12) and report.rate == F(1, 3))
    _report(1, ok, f"(3,4): 36 demands x 4 users, 0 failures, "
                   f"M={report.memory}, R={report.rate}, {wall:.2f}s")
    assert report.demands_checked == 36
    assert report.failures == []
    assert report.memory == F(25, 12)
    assert report.rate == F(1, 3)


def test_criterion_2_grid_achievability():
    start = time.perf_counter()
    bad = []
    checked = 0
    for k in range(2, 8):
        for n in range(2, k + 1):
            report = run_verification(n, k, "new")
            checked += report.demands_checked
            if not report.ok:
                bad.append((n, k, "decode failures"))
            if (report.memory, report.rate) != scheme_point(n, k):
                bad.append((n, k, "measured point off the formula"))
    wall = time.perf_counter() - start
    _report(2, not bad, f"2<=N<=K<=7: {checked} demands, every user decoded, "
                        f"(M,R) exact, {wall:.0f}s")
    assert not bad, bad


def test_criterion_3_man_baseline():
    bad = []
    for k in range(2, 8):
        for n in range(1, k + 1):
            report = run_verification(n, k, "man")
            if not report.ok:
                bad.append((n, k, "decode failures"))
            if report.rate != F(1, k):
                bad.append((n, k, f"rate {report.rate} != 1/{k}"))
    _report(3, not bad, "man scheme: N<=K<=7 all demands decoded, R=1/K exact")
    assert not bad, bad


def test_criterion_4_case1_certificates():
    bad = []
    for k in range(2, 9):
        for n in range(_ceil_half(k), k + 1):
            rep = check_certificate(case1_certificate(n, k))
            if not rep.ok:
                bad.append((n, k, rep.reason))
    cert = case1_certificate(3, 4)
    literal = (cert.target_m, cert.target_r, cert.target_rhs) == (F(4), F(8), F(11))
    if not literal:
        bad.append((3, 4, f"target is {cert.target_text()}, not 4M+8R >= 11"))
    surviving = [i for i in range(len(cert.axioms))
                 if check_certificate(perturbed(cert, i, 1)).ok]
    if surviving:
        bad.append((3, 4, f"mutations {surviving} still pass"))
    _report(4, not bad, f"case-1 certificates PASS for ceil((K+1)/2)<=N<=K<=8; "
                        f"(3,4) target 4M+8R>=11; all {len(cert.axioms)} "
                        f"single-multiplier mutations FAIL")
    assert not bad, bad


def _lowest_case2_vertex(n: int, k: int):
    """(slack, label, M, R) of the achievable vertex lowest against the
    few-files line at (N, K); None for K = 1, where no curve is defined."""
    if k < 2:
        return None
    t_m, t_r, rhs = case2_target(n, k)
    return min((t_m * m + t_r * r - rhs, tag, m, r)
               for m, r, tag in assemble_known_curve(n, k).vertices)


def test_criterion_5_case2_certificates():
    """Stated range 1 <= N <= ceil((K+1)/2), K <= 8: 24 (N, K) pairs.

    Every pair is accounted for in exactly one way:

    - certified: case2_certificate(N, K) passes the checker, its target is
      case2_target(N, K), and no vertex of assemble_known_curve(N, K) lies
      strictly below the certified line (the trivial (1, 1) certificate has
      no curve to cross-check);
    - refuted: an achievable vertex lies strictly below the line
      K(K+1)/(2N) M + K(K-1)/2 R >= (K^2+K-2)/2, and the generator refuses
      the pair with OutOfCaseRange.

    The refuted pairs must be exactly N = 1 with K >= 2 and, for even K,
    N = (K+2)/2 (see test_case2_bound_false_* in test_certificates.py);
    every other pair must be certified, (2, 4) with target 5M + 6R >= 9.
    """
    bad = []
    certified = []
    refuted = {}
    for k in range(1, 9):
        for n in range(1, min(_ceil_half(k), k) + 1):
            lowest = _lowest_case2_vertex(n, k)
            below = lowest is not None and lowest[0] < 0
            try:
                cert = case2_certificate(n, k)
            except OutOfCaseRange:
                if below:
                    refuted[(n, k)] = lowest
                else:
                    bad.append((n, k, "refused, but no achievable vertex "
                                      "lies below the line"))
                continue
            rep = check_certificate(cert)
            target = (cert.target_m, cert.target_r, cert.target_rhs)
            if not rep.ok:
                bad.append((n, k, rep.reason))
            elif target != case2_target(n, k):
                bad.append((n, k, f"target is {cert.target_text()}"))
            elif below:
                bad.append((n, k, f"certified, yet vertex {lowest} lies "
                                  "below the line"))
            else:
                certified.append((n, k))
    expected_refuted = ({(1, k) for k in range(2, 9)}
                        | {((k + 2) // 2, k) for k in range(2, 9, 2)})
    if set(refuted) != expected_refuted:
        bad.append(("refuted", sorted(refuted), "expected",
                    sorted(expected_refuted)))
    cert = case2_certificate(2, 4)
    literal = (cert.target_m, cert.target_r, cert.target_rhs) == (F(5), F(6), F(9))
    if not literal:
        bad.append((2, 4, f"target is {cert.target_text()}, not 5M+6R >= 9"))
    witnesses = "; ".join(f"({n},{k}) {tag} M={m} R={r} slack={slack}"
                          for (n, k), (slack, tag, m, r) in sorted(refuted.items()))
    _report(5, not bad,
            f"case-2 bound: {len(certified)} pairs certified incl. (2,4) "
            f"target 5M+6R>=9, no achievable vertex below a certified line; "
            f"{len(refuted)} pairs refuted by an achievable vertex: {witnesses}")
    assert not bad, bad


def test_criterion_6_tightness():
    bad = []
    for k in range(2, 9):
        for n in range(1, k + 1):
            if not (in_case1_range(n, k) or in_case2_range(n, k)):
                continue
            rep = tightness_check(n, k)
            for entry in rep.entries:
                if entry.case == 1:
                    target = scheme_point(n, k)
                    if not (entry.memory == target[0]
                            and entry.bound_rate == entry.achievable_rate == F(1, k - 1)):
                        bad.append((n, k, 1))
                else:
                    if not (entry.memory == F(n * (k - 2), k)
                            and entry.bound_rate == entry.achievable_rate
                            == rate_yu(n, k, k - 2) == F(2, k - 1)):
                        bad.append((n, k, 2))
    _report(6, not bad, "bounds meet the achievable corners exactly: "
                        "case 1 at (M_A, 1/(K-1)), case 2 at (N(K-2)/K, 2/(K-1))")
    assert not bad, bad


def test_criterion_7_tradeoff_regression():
    bad = []
    curve34 = assemble_known_curve(3, 4)
    seg = next((s for s in curve34.segments
                if (s.m_lo, s.m_hi) == (F(25, 12), F(9, 4))), None)
    if seg is None or (seg.intercept, seg.slope) != (F(11, 8), -F(1, 2)) \
            or seg.provenance != "theorem-case1":
        bad.append("(3,4) exact segment 11/8 - M/2 on [25/12, 9/4] missing")
    curve24 = assemble_known_curve(2, 4)
    seg = next((s for s in curve24.segments
                if (s.m_lo, s.m_hi) == (F(1), F(3, 2))), None)
    if seg is None or (seg.intercept, seg.slope) != (F(3, 2), -F(5, 6)) \
            or seg.provenance != "theorem-case2":
        bad.append("(2,4) exact segment 3/2 - 5M/6 on [1, 3/2] missing")
    verts34 = {(m, r) for m, r, _ in curve34.vertices}
    verts24 = {(m, r) for m, r, _ in curve24.vertices}
    for corner in [(F(1, 4), F(9, 4)), (F(9, 4), F(1, 4))]:
        if corner not in verts34:
            bad.append(f"(3,4) corner {corner} missing")
    for corner in [(F(1, 4), F(3, 2)), (F(3, 2), F(1, 4)), (F(1), F(2, 3))]:
        if corner not in verts24:
            bad.append(f"(2,4) corner {corner} missing")
    _report(7, not bad, "exact segments and every labelled corner appear, "
                        "exact rationals throughout")
    assert not bad, bad


def test_criterion_8_set_identities():
    bad = []
    for k in range(2, 11):
        for n in range(2, k + 1):
            if in_case1_range(n, k):
                demands, b = case1_demand_table(n, k)
                sets = {i: case1_sets(n, k, i) for i in range(1, n + 1)}
                j = sets[1][3]
                try:
                    assert sets[n][0] == sets[1][1] == sets[n][2] == frozenset()
                    for i in range(1, n + 1):
                        a_i, b_i, c_i, _ = sets[i]
                        assert len(a_i) == n - i and len(b_i) == i - 1
                        assert a_i & c_i == c_i
                        assert b_i & j == (b_i if i <= k - n else j)
                    for i in range(1, n):
                        assert sets[i + 1][0] | {b[i + 1]} == sets[i][0]
                    for i in range(1, k - n + 1):
                        assert sets[i][1] | {b[n + i]} == sets[i + 1][1]
                    if n < k:
                        assert sets[k - n][1] | {b[k]} == j
                    for l in range(1, k + 1):
                        assert demands[b[l] - 1][l - 1] == n
                except AssertionError:
                    bad.append(("case1", n, k))
            if in_case2_range(n, k):
                demands, b = case2_demand_table(n, k)
                sets = {i: case2_sets(n, k, i) for i in range(1, n + 1)}
                tails = {j2: case2_tail_sets(n, k, j2) for j2 in range(2 * n, k + 1)}
                try:
                    assert sets[n][0] == sets[1][1] == sets[n][2] == frozenset()
                    for i in range(1, n):
                        assert sets[i + 1][4] | {b[i + 1]} == sets[i][4]
                        assert sets[i][1] | {b[n + i]} == sets[i + 1][1]
                    if 2 * n <= k:
                        assert tails[2 * n][1] == frozenset()
                        for j2 in range(2 * n, k):
                            assert tails[j2][2] | {b[j2]} == tails[j2 + 1][2]
                        assert tails[k][2] | {b[k]} == sets[n][4]
                        assert sets[n - 1][1] | {b[2 * n - 1]} == tails[2 * n][2]
                    else:
                        assert sets[n - 1][1] | {b[2 * n - 1]} == sets[n][4]
                    for l in range(1, k + 1):
                        assert demands[b[l] - 1][l - 1] == n
                except AssertionError:
                    bad.append(("case2", n, k))
    _report(8, not bad, "demand-set chain identities hold exhaustively for "
                        "both regimes, K <= 10")
    assert not bad, bad


def test_criterion_9_file_round_trip():
    rng = random.Random("acceptance-10KiB")
    plain = [bytes(rng.randrange(256) for _ in range(10240)) for _ in range(3)]
    cfg = NetworkConfig(3, 4)
    demand = (1, 1, 2, 3)

    library = [split_file(blob, cfg) for blob in plain]
    caches = place(library, cfg)
    broadcast = deliver(library, demand, cfg)
    new_ok = all(decode(caches[u - 1], broadcast, cfg) == plain[demand[u - 1] - 1]
                 for u in range(1, 5))

    man_lib = [MAN.split(blob, cfg) for blob in plain]
    man_caches = MAN.place(man_lib, cfg)
    packet = MAN.deliver(man_lib, demand, cfg)
    man_ok = all(MAN.decode(man_caches[u - 1], packet, cfg)
                 == plain[demand[u - 1] - 1] for u in range(1, 5))

    _report(9, new_ok and man_ok,
            "10 KiB pseudorandom files survive split/place/deliver/decode "
            "bit-exactly for every user under both schemes")
    assert new_ok and man_ok
