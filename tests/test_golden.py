"""Byte-for-byte comparison of CLI output against committed golden files.

tests/golden/tradeoff/nN_kK.csv holds `cachewright tradeoff --n N --k K` at
the default 33 samples, and tests/golden/converse/nN_kK.out the stdout of
`cachewright converse --n N --k K`, whose exit code is listed in
tests/golden/converse/exit_codes.txt, for every 1 <= N <= K with 2 <= K <= 8;
tests/golden/converse/certificates.sha256 the SHA-256 of the text of every family
certificate with 2 <= N <= K <= 8, which `converse --dump` writes.
tests/golden/verify/SCHEME_nN_kK.json holds the JSON of `cachewright verify --n N
--k K --scheme SCHEME` without its wall_time, for both schemes and every
1 <= N <= K with 2 <= K <= 6.
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path

import pytest

from cachewright.cli import main
from cachewright.converse import serialize_certificate
from cachewright.converse.tightness import FAMILIES

GOLDEN = Path(__file__).parent / "golden"
PAIRS = [(n, k) for k in range(2, 9) for n in range(1, k + 1)]
VERIFIED = [(scheme, n, k) for scheme in ("man", "new") for n, k in PAIRS if k <= 6]


def _exit_codes() -> dict[tuple[int, int], int]:
    codes = {}
    for line in (GOLDEN / "converse" / "exit_codes.txt").read_text().splitlines():
        n, k, code = map(int, line.split())
        codes[(n, k)] = code
    return codes


def test_golden_set_is_complete():
    assert sorted(_exit_codes()) == sorted(PAIRS)
    assert len(list((GOLDEN / "tradeoff").glob("*.csv"))) == len(PAIRS) == 35
    assert len(list((GOLDEN / "converse").glob("*.out"))) == len(PAIRS)
    assert len(list((GOLDEN / "verify").glob("*.json"))) == len(VERIFIED) == 40


@pytest.mark.parametrize("n,k", PAIRS)
def test_tradeoff_csv_matches_golden(n, k, capsysbinary):
    assert main(["tradeoff", "--n", str(n), "--k", str(k)]) == 0
    expected = (GOLDEN / "tradeoff" / f"n{n}_k{k}.csv").read_bytes()
    assert capsysbinary.readouterr().out == expected


@pytest.mark.parametrize("n,k", PAIRS)
def test_converse_matches_golden(n, k, capsysbinary):
    code = main(["converse", "--n", str(n), "--k", str(k)])
    expected = (GOLDEN / "converse" / f"n{n}_k{k}.out").read_bytes()
    assert capsysbinary.readouterr().out == expected
    assert code == _exit_codes()[(n, k)]


def test_family_certificate_text_matches_its_digest():
    digests = {}
    for line in (GOLDEN / "converse" / "certificates.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        digests[name] = digest
    assert len(digests) == 31
    assert digests == {
        f"theorem{f.theorem}-{n}-{k}": sha256(serialize_certificate(f.certificate(n, k)).encode())
        .hexdigest()
        for n, k in PAIRS if n >= 2 for f in FAMILIES if f.in_range(n, k)}


@pytest.mark.parametrize("scheme,n,k", VERIFIED)
def test_verify_json_matches_golden_apart_from_wall_time(scheme, n, k, capsys):
    assert main(["verify", "--n", str(n), "--k", str(k), "--scheme", scheme]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time"]
    expected = (GOLDEN / "verify" / f"{scheme}_n{n}_k{k}.json").read_text()
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == expected
