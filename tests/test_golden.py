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
tests/golden/digests/ holds one SHA-256 per CLI run, of its exit code, stdout, stderr and
the file it wrote, with wall_time blanked: roundtrip.sha256 for every demand, user and
scheme at (3,4) on a seeded 64 KiB + 17 byte file; verify_p11.sha256 for `verify --prime
11` under both schemes and every 1 <= N <= K <= 6; converse_theorems.sha256 for `converse
--theorem T --dump` under each key T and every 1 <= N <= K <= 8, refusals included;
tradeoff_k9_k20.sha256 for `tradeoff --n N --k K` at every 1 <= N <= K with 9 <= K <= 20,
beyond the CSV goldens. They were written from the code before a change, so they check that
the change keeps behaviour.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
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


DIGESTS = GOLDEN / "digests"
DIGEST_CASES = {"roundtrip": 648, "verify_p11": 42, "converse_theorems": 108,
                "tradeoff_k9_k20": 174}
WALL_TIME = re.compile(rb'"wall_time": [-+.0-9e]+')


def _run_digest(argv: list[str], written: Path) -> str:
    """SHA-256 of main(argv): its exit code, stdout, stderr and what it left at written."""
    written.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    left = b"file " + written.read_bytes() if written.exists() else b"no file"
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), left]
    return sha256(b"\0".join(WALL_TIME.sub(b'"wall_time": _', part) for part in parts)).hexdigest()


def _digest_cases(name: str, tmp_path: Path) -> dict[str, str]:
    """label -> digest for every case of one digest file."""
    written = tmp_path / "written"
    if name == "roundtrip":
        source = tmp_path / "input.bin"
        blocks = (sha256(b"cachewright-digest-%d" % i).digest() for i in range(2049))
        source.write_bytes(b"".join(blocks)[:64 * 1024 + 17])
        return {f"roundtrip-{scheme}-{','.join(map(str, d))}-user{user}": _run_digest(
                    ["roundtrip", str(source), "--n", "3", "--k", "4", "--scheme", scheme,
                     "--demand", ",".join(map(str, d)), "--user", str(user),
                     "--out", str(written)], written)
                for scheme in ("man", "new") for d in itertools.product(range(1, 4), repeat=4)
                for user in range(1, 5)}
    if name == "verify_p11":
        return {f"verify-{scheme}-n{n}-k{k}-p11": _run_digest(
                    ["verify", "--n", str(n), "--k", str(k), "--scheme", scheme,
                     "--prime", "11", "--out", str(written)], written)
                for scheme in ("man", "new") for k in range(1, 7) for n in range(1, k + 1)}
    if name == "tradeoff_k9_k20":
        return {f"tradeoff-n{n}-k{k}": _run_digest(
                    ["tradeoff", "--n", str(n), "--k", str(k)], written)
                for k in range(9, 21) for n in range(1, k + 1)}
    return {f"converse-n{n}-k{k}-theorem{theorem}": _run_digest(
                ["converse", "--n", str(n), "--k", str(k), "--theorem", theorem,
                 "--dump", str(written)], written)
            for theorem in ("2", "4", "auto") for k in range(1, 9) for n in range(1, k + 1)}


@pytest.mark.parametrize("name", list(DIGEST_CASES))
def test_cli_runs_match_their_digests(name, tmp_path):
    expected = {}
    for line in (DIGESTS / f"{name}.sha256").read_text().splitlines():
        digest, label = line.split("  ")
        expected[label] = digest
    actual = _digest_cases(name, tmp_path)
    assert len(expected) == DIGEST_CASES[name] and sorted(actual) == sorted(expected)
    differ = [label for label in actual if actual[label] != expected[label]]
    assert not differ, f"{len(differ)} runs differ from {name}.sha256, first {differ[:5]}"
