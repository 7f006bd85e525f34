"""Each output check rejects a wrong output; the tail helper keeps its promises.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import stats  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cachewright import converse, tradeoff  # noqa: E402
from workloads import CertifyCurves  # noqa: E402


# --- roundtrip --------------------------------------------------------------

GOOD_STDOUT = "M = 25/12\nR = 1/3\nroundtrip OK: user 1 recovered file 1 (5 bytes)\n"


def test_roundtrip_accepts_the_right_output():
    checks.check_roundtrip(0, GOOD_STDOUT, b"hello", b"hello", 3, 4)


def test_roundtrip_rejects_one_flipped_byte():
    decoded = bytearray(b"hello")
    decoded[2] ^= 0x01
    with pytest.raises(CheckFailed, match="byte 2"):
        checks.check_roundtrip(0, GOOD_STDOUT, bytes(decoded), b"hello", 3, 4)


def test_roundtrip_rejects_memory_off_the_formula():
    stdout = GOOD_STDOUT.replace("M = 25/12", "M = 13/6")
    with pytest.raises(CheckFailed, match="printed M"):
        checks.check_roundtrip(0, stdout, b"hello", b"hello", 3, 4)


def test_roundtrip_rejects_rate_off_the_formula():
    stdout = GOOD_STDOUT.replace("R = 1/3", "R = 1/4")
    with pytest.raises(CheckFailed, match="printed R"):
        checks.check_roundtrip(0, stdout, b"hello", b"hello", 3, 4)


def test_coded_point_matches_the_abstract_at_3_4():
    assert checks.coded_point(3, 4) == (Fraction(25, 12), Fraction(1, 3))


# --- verify -----------------------------------------------------------------

def _report(n, k, scheme, demands, memory, rate, failures=()):
    return json.dumps({"config": {"k": k, "n": n, "p": 257, "scheme": scheme},
                       "demands_checked": demands, "failures": list(failures),
                       "measured": {"M": str(memory), "R": str(rate)},
                       "wall_time": 0.1})


def test_verify_accepts_the_right_reports():
    demands = len(checks.demand_set(3, 5))
    assert demands == 150
    checks.check_verify(0, _report(3, 5, "new", 150, Fraction(46, 20), Fraction(1, 4)),
                        3, 5, "new", demands)
    checks.check_verify(0, _report(3, 5, "man", 150, Fraction(12, 5), Fraction(1, 5)),
                        3, 5, "man", demands)


def test_verify_rejects_demands_checked_one_short():
    text = _report(3, 5, "new", 149, Fraction(46, 20), Fraction(1, 4))
    with pytest.raises(CheckFailed, match="demands_checked = 149"):
        checks.check_verify(0, text, 3, 5, "new", 150)


def test_verify_rejects_a_reported_failure():
    text = _report(3, 5, "new", 150, Fraction(46, 20), Fraction(1, 4),
                   [{"demand": [1, 2, 3, 1, 1], "user": 2, "reason": "decoded bytes differ"}])
    with pytest.raises(CheckFailed, match="decode failures"):
        checks.check_verify(0, text, 3, 5, "new", 150)


def test_verify_rejects_the_wrong_point():
    text = _report(3, 5, "man", 150, Fraction(46, 20), Fraction(1, 4))
    with pytest.raises(CheckFailed, match="measured"):
        checks.check_verify(0, text, 3, 5, "man", 150)


# --- certificates and curves -------------------------------------------------

@pytest.fixture(scope="module")
def op_3_5():
    """One certify-curves op at (3,5), where both bound families apply."""
    workload = CertifyCurves(seed=1, seconds=1, workdir=BENCH)
    return workload, workload.run((3, 5))


def test_certify_accepts_the_real_op(op_3_5):
    workload, result = op_3_5
    assert [c[0] for c in result[0]] == [1, 2]
    workload.check((3, 5), result)


def test_certify_rejects_a_perturbed_certificate(op_3_5):
    _, (certs, _, _, _) = op_3_5
    case, cert = certs[0][0], certs[0][1]
    bad = converse.perturbed(cert, 0)
    report = converse.check_certificate(bad)
    parsed = converse.parse_certificate(converse.serialize_certificate(bad))
    with pytest.raises(CheckFailed, match="fails"):
        checks.check_certificate_pair(case, 3, 5, bad, report, parsed,
                                      converse.check_certificate(parsed))


def test_certify_rejects_a_parsed_copy_that_differs(op_3_5):
    _, (certs, _, _, _) = op_3_5
    case, cert, report = certs[0][:3]
    other = converse.perturbed(cert, 0, 0)  # same content, so equal
    checks.check_certificate_pair(case, 3, 5, cert, report, other, report)
    changed = converse.perturbed(cert, len(cert.axioms) - 1, Fraction(1, 7))
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_certificate_pair(case, 3, 5, cert, report, changed, report)


def test_certify_rejects_a_target_that_is_not_the_stated_bound():
    assert checks.proportional((Fraction(8), Fraction(16), Fraction(22)),
                               checks.reference_target(1, 3, 4))
    assert not checks.proportional((Fraction(4), Fraction(8), Fraction(10)),
                                   checks.reference_target(1, 3, 4))
    assert not checks.proportional((Fraction(-4), Fraction(-8), Fraction(-11)),
                                   checks.reference_target(1, 3, 4))


def test_certify_rejects_a_csv_row_below_a_certified_line(op_3_5):
    _, (certs, _, curve, csv_text) = op_3_5
    t_m, t_r, rhs = certs[0][1].target_m, certs[0][1].target_r, certs[0][1].target_rhs
    points = checks.csv_points(csv_text)
    # the row closest to the line, pushed just below it
    row = 1 + min(range(len(points)), key=lambda i: t_m * points[i][0] + t_r * points[i][1])
    lines = csv_text.splitlines()
    cells = lines[row].split(",")
    m = Fraction(cells[0])
    cells[2] = str((rhs - t_m * m) / t_r - Fraction(1, 1000))
    lines[row] = ",".join(cells)
    with pytest.raises(CheckFailed, match="CSV row .* lies below"):
        checks.check_curve(curve, "\n".join(lines) + "\n", [c[1] for c in certs], 3)


def test_certify_rejects_a_curve_that_does_not_end_at_n_0(op_3_5):
    _, (certs, _, curve, _) = op_3_5
    csv_text = tradeoff.emit_csv(curve, 33)
    truncated = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    with pytest.raises(CheckFailed, match="ends at"):
        checks.check_curve(curve, truncated, [c[1] for c in certs], 3)


# --- percentile helper --------------------------------------------------------

def test_no_tail_below_forty_samples():
    assert stats.tail([1.0] * 39) is None
    assert stats.tail(list(range(40))) == (29, 75.0)


@pytest.mark.parametrize("n", [40, 41, 67, 99, 100, 250])
def test_tail_keeps_ten_samples_beyond_and_never_reads_below_the_median(n):
    rng = random.Random(n)
    values = [rng.expovariate(1.0) for _ in range(n)]
    value, percentile = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert value >= stats.median(values)
    assert percentile >= 75.0
    # the most adverse order: everything above the median equal to it
    flat = [0.0] * (n // 2) + [1.0] * (n - n // 2)
    assert stats.tail(flat)[0] >= stats.median(flat)
