from __future__ import annotations

import dataclasses
import errno
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cachewright import cli, scheme, tradeoff
from cachewright.cli import main
from cachewright.converse import check_certificate, parse_certificate, perturbed
from cachewright.errors import CachewrightError

from test_field import PSI_12, PSI_13


@pytest.fixture
def sample_file(tmp_path):
    blob = bytes(random.Random("cli-sample").randrange(256) for _ in range(3000))
    path = tmp_path / "sample.bin"
    path.write_bytes(blob)
    return path, blob


def test_roundtrip_new(tmp_path, sample_file, capsys):
    path, blob = sample_file
    out = tmp_path / "decoded.bin"
    rc = main(["roundtrip", "--n", "3", "--k", "4", "--scheme", "new",
               "--demand", "1,1,2,3", "--user", "1", str(path), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == blob
    output = capsys.readouterr().out
    assert "M = 25/12" in output
    assert "R = 1/3" in output


def test_roundtrip_man_any_demand(tmp_path, sample_file, capsys):
    path, blob = sample_file
    out = tmp_path / "decoded.bin"
    rc = main(["roundtrip", "--n", "3", "--k", "4", "--scheme", "man",
               "--demand", "2,2,2,2", "--user", "4", str(path), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == blob
    assert "R = 1/4" in capsys.readouterr().out


def test_roundtrip_rejects_demand_outside_d(tmp_path, sample_file):
    path, _ = sample_file
    rc = main(["roundtrip", "--n", "3", "--k", "4", "--scheme", "new",
               "--demand", "1,1,1,1", "--user", "1", str(path),
               "--out", str(tmp_path / "x.bin")])
    assert rc == 2


def test_verify_3_4(capsys):
    rc = main(["verify", "--n", "3", "--k", "4", "--scheme", "new"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["demands_checked"] == 36
    assert report["failures"] == []
    assert report["measured"] == {"M": "25/12", "R": "1/3"}


def test_verify_2_2(capsys):
    rc = main(["verify", "--n", "2", "--k", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["demands_checked"] == 2


def test_verify_man_2_4(capsys):
    rc = main(["verify", "--n", "2", "--k", "4", "--scheme", "man"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["demands_checked"] == 14
    assert report["measured"]["R"] == "1/4"


def test_verify_parallel_matches_serial(capsys):
    rc = main(["verify", "--n", "2", "--k", "4", "--jobs", "3"])
    assert rc == 0
    parallel = json.loads(capsys.readouterr().out)
    rc = main(["verify", "--n", "2", "--k", "4", "--jobs", "1"])
    assert rc == 0
    serial = json.loads(capsys.readouterr().out)
    for key in ("config", "demands_checked", "failures", "measured"):
        assert parallel[key] == serial[key]


def test_verify_budget_guard(capsys):
    for n, k in [(2, 9), (2, 15000)]:
        rc = main(["verify", "--n", str(n), "--k", str(k)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("args, reason", [
    (["--n", "10", "--k", "9"], "need 1 <= N <= K"),
    (["--n", "0", "--k", "9"], "need 1 <= N <= K"),
    (["--n", "2", "--k", "9", "--prime", "9"], "9 is not prime"),
    (["--n", "2", "--k", "9", "--prime", "7"], "modulus 7 must exceed K=9"),
    # strong pseudoprimes to every base up to 37, and the second also to 41
    (["--n", "2", "--k", "9", "--prime", str(PSI_12)], f"{PSI_12} is not prime"),
    (["--n", "2", "--k", "9", "--prime", str(PSI_13)], f"{PSI_13} is not below {PSI_13}"),
])
def test_verify_reports_a_bad_config_before_the_budget_guard(args, reason, capsys):
    assert main(["verify", *args]) == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "--force" not in err


def test_verify_takes_a_prime_below_257_and_roundtrip_does_not(tmp_path, sample_file, capsys):
    assert main(["verify", "--n", "2", "--k", "4", "--prime", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["p"] == 5 and report["failures"] == []
    assert report["measured"] == {"M": "17/12", "R": "1/3"}
    path, _ = sample_file
    assert main(["roundtrip", "--n", "2", "--k", "4", "--prime", "5", "--demand", "1,2,1,1",
                 str(path), "--out", str(tmp_path / "x.bin")]) == 2
    assert "p = 5 < 257 cannot hold a byte per symbol" in capsys.readouterr().err


def test_verify_json_stable_ordering(capsys):
    main(["verify", "--n", "2", "--k", "3"])
    text = capsys.readouterr().out
    assert text.index('"config"') < text.index('"demands_checked"') \
        < text.index('"failures"')


def test_tradeoff_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["tradeoff", "--n", "2", "--k", "4", "--samples", "9",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("M_exact,M_decimal,R_exact,R_decimal,provenance\n")
    rows = text.strip().split("\n")[1:]
    assert any(r.startswith("1,") and ",2/3," in r for r in rows)
    assert rows[-1].startswith("2,")
    assert rows[-1].split(",")[2] == "0"


def test_converse_theorem_2(capsys):
    rc = main(["converse", "--n", "3", "--k", "4", "--theorem", "2"])
    assert rc == 0
    output = capsys.readouterr().out
    assert "4M+8R >= 11 PASS" in output
    assert "tight at M=25/12" in output


def test_converse_theorem_4(capsys):
    rc = main(["converse", "--n", "2", "--k", "4", "--theorem", "4"])
    assert rc == 0
    output = capsys.readouterr().out
    assert "5M+6R >= 9 PASS" in output
    assert "tight at M=1" in output


def test_converse_out_of_range(capsys):
    rc = main(["converse", "--n", "2", "--k", "4", "--theorem", "2"])
    assert rc == 2
    assert "many-files" in capsys.readouterr().err


def test_converse_auto_runs_both_at_boundary(capsys):
    rc = main(["converse", "--n", "2", "--k", "3", "--theorem", "auto"])
    assert rc == 0
    output = capsys.readouterr().out.strip().split("\n")
    assert len(output) == 2


def test_converse_dump_parses_and_checks(tmp_path, capsys):
    dump = tmp_path / "cert.txt"
    rc = main(["converse", "--n", "3", "--k", "4", "--theorem", "2",
               "--dump", str(dump)])
    assert rc == 0
    cert = parse_certificate(dump.read_text())
    assert check_certificate(cert).ok


@pytest.mark.parametrize("family", cli.FAMILIES, ids=lambda f: f"theorem-{f.theorem}")
def test_converse_dump_round_trips_every_certified_pair(tmp_path, capsys, family):
    pairs = [(n, k) for k in range(2, 9) for n in range(2, k + 1) if family.in_range(n, k)]
    assert pairs
    for n, k in pairs:
        dump = tmp_path / f"cert-{n}-{k}.txt"
        assert main(["converse", "--n", str(n), "--k", str(k), "--theorem", family.theorem,
                     "--dump", str(dump)]) == 0, (n, k)
        cert = parse_certificate(dump.read_text(encoding="utf-8"))
        assert cert == family.certificate(n, k), (n, k)
        assert check_certificate(cert).ok, (n, k)


def test_converse_refuses_one_dump_of_both_families(tmp_path, capsys, monkeypatch):
    # at 2N = K + 1 both regimes hold, and one file cannot hold two certificates
    monkeypatch.setattr(cli, "FAMILIES", tuple(
        dataclasses.replace(f, certificate=_fail_if_called) for f in cli.FAMILIES))
    dump = tmp_path / "cert.txt"
    assert main(["converse", "--n", "3", "--k", "5", "--dump", str(dump)]) == 2
    err = capsys.readouterr().err
    assert "both bound families, which certify the same line" in err
    assert "--theorem 2 or --theorem 4" in err
    assert not dump.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "2", "--k", "3", "--jobs", jobs, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --jobs {jobs} is below 1" in captured.err
    assert not out.exists()


def test_prime_0_is_refused_like_any_other_non_prime(tmp_path, sample_file, capsys):
    out = tmp_path / "out.bin"
    assert main(["verify", "--n", "2", "--k", "3", "--prime", "0"]) == 2
    assert main(["roundtrip", "--n", "2", "--k", "3", "--prime", "0", "--demand", "1,2,1",
                 str(sample_file[0]), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: 0 is not prime\n" * 2)
    assert not out.exists()


def test_the_package_reads_no_environment_variable():
    src = Path(cli.__file__).resolve().parent
    for path in sorted(src.rglob("*.py")):
        source = path.read_text()
        assert [text for text in ("os.environ", "getenv") if text in source] == [], path.name


@pytest.mark.parametrize("scheme", ["new", "man"])
def test_single_user_is_a_usage_error(tmp_path, sample_file, scheme, capsys):
    path, _ = sample_file
    assert main(["verify", "--n", "1", "--k", "1", "--scheme", scheme]) == 2
    assert main(["roundtrip", "--n", "1", "--k", "1", "--scheme", scheme,
                 "--demand", "1", str(path), "--out", str(tmp_path / "x.bin")]) == 2
    assert "K = 1" in capsys.readouterr().err


def _assert_open_error(capsys, path, reason):
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot open {path}: {reason}\n"


def test_roundtrip_file_errors_are_usage_errors(tmp_path, sample_file, capsys):
    path, _ = sample_file
    missing = tmp_path / "no" / "such.bin"
    args = ["roundtrip", "--n", "2", "--k", "3", "--demand", "1,2,1"]
    assert main(args + [str(missing), "--out", str(tmp_path / "o.bin")]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")
    assert not (tmp_path / "o.bin").exists()
    assert main(args + [str(path), "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")
    assert main(args + [str(tmp_path), "--out", str(tmp_path / "o.bin")]) == 2
    _assert_open_error(capsys, tmp_path, "Is a directory")


def test_roundtrip_empty_out_is_a_usage_error(tmp_path, sample_file, capsys, monkeypatch):
    path, _ = sample_file
    monkeypatch.setattr(cli, "_filler", _fail_if_called)
    monkeypatch.setattr(scheme, "split_file", _fail_if_called)
    assert main(["roundtrip", "--n", "2", "--k", "3", "--demand", "1,2,1", str(path),
                 "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out must name a file for the decoded bytes\n"


def test_the_package_runs_as_a_module(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cachewright", "converse", "--n", "3", "--k", "4"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("4M+8R >= 11 PASS")


def test_verify_out_error_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["verify", "--n", "2", "--k", "2", "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_tradeoff_out_error_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "curve.csv"
    assert main(["tradeoff", "--n", "2", "--k", "3", "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_converse_dump_error_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "cert.txt"
    assert main(["converse", "--n", "3", "--k", "4", "--dump", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the work ran before the output was opened")


def test_roundtrip_opens_out_before_the_work(tmp_path, sample_file, capsys, monkeypatch):
    path, _ = sample_file
    monkeypatch.setattr(cli, "_filler", _fail_if_called)
    monkeypatch.setattr(scheme, "split_file", _fail_if_called)
    monkeypatch.setattr(cli, "split_file", _fail_if_called)
    missing = tmp_path / "missing" / "o.bin"
    assert main(["roundtrip", "--n", "3", "--k", "4", "--demand", "1,1,2,3",
                 str(path), "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_verify_opens_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verification", _fail_if_called)
    missing = tmp_path / "missing" / "x.json"
    assert main(["verify", "--n", "4", "--k", "6", "--jobs", "1", "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_converse_opens_dump_before_the_certificates(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "FAMILIES", tuple(
        dataclasses.replace(f, certificate=_fail_if_called) for f in cli.FAMILIES))
    monkeypatch.setattr(cli, "tightness_check", _fail_if_called)
    missing = tmp_path / "missing" / "cert.txt"
    assert main(["converse", "--n", "3", "--k", "4", "--dump", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_tradeoff_opens_out_before_the_curve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "assemble_known_curve", _fail_if_called)
    missing = tmp_path / "missing" / "curve.csv"
    assert main(["tradeoff", "--n", "2", "--k", "3", "--out", str(missing)]) == 2
    _assert_open_error(capsys, missing, "No such file or directory")


def test_tradeoff_refuses_more_samples_than_it_can_hold(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("emit_csv sampled the curve")

    curve = tradeoff.assemble_known_curve(2, 3)
    monkeypatch.setattr(cli, "assemble_known_curve", lambda n, k: curve)
    monkeypatch.setattr(tradeoff, "Fraction", refuse)   # each sample is one Fraction
    assert main(["tradeoff", "--n", "2", "--k", "3", "--samples", str(10**6 + 1)]) == 2
    assert capsys.readouterr().err == "error: need at most 1000000 samples\n"


def test_failed_work_removes_only_an_output_it_created(tmp_path, sample_file, capsys):
    path, _ = sample_file
    out = tmp_path / "decoded.bin"
    args = ["roundtrip", "--n", "3", "--k", "4", "--demand", "1,1,1,1", str(path),
            "--out", str(out)]
    assert main(args) == 2
    assert "does not request every file" in capsys.readouterr().err
    assert not out.exists()
    out.write_bytes(b"kept")
    assert main(args) == 2
    assert out.read_bytes() == b"kept"
    assert main(["verify", "--n", "4", "--k", "3", "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--k", "1", "--scheme", "man", "--out"],
    ["tradeoff", "--n", "2", "--k", "3", "--samples", "1", "--out"],
    ["converse", "--n", "3", "--k", "4", "--theorem", "4", "--dump"],
    ["roundtrip", "--n", "2", "--k", "3", "--demand", "1,1,1", "INPUT", "--out"],
], ids=lambda argv: argv[0])
def test_failed_work_leaves_an_existing_output_as_it_was(tmp_path, sample_file, capsys, argv):
    path, blob = sample_file
    out = tmp_path / "kept.bin"
    out.write_bytes(b"8 bytes.")
    argv = [str(path) if arg == "INPUT" else arg for arg in argv]
    # roundtrip --out naming its own input must not destroy it either
    for target in (out, path) if argv[0] == "roundtrip" else (out,):
        assert main([*argv, str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"8 bytes."
        assert path.read_bytes() == blob


def test_work_that_is_done_replaces_all_of_an_existing_output(tmp_path, sample_file, capsys):
    path, blob = sample_file
    out = tmp_path / "out"
    for argv in (["verify", "--n", "2", "--k", "3", "--out", str(out)],
                 ["roundtrip", "--n", "2", "--k", "3", "--demand", "1,2,1", str(path),
                  "--out", str(out)],
                 ["converse", "--n", "3", "--k", "4", "--theorem", "2", "--dump", str(out)]):
        out.write_bytes(b"x" * 100_000)  # longer than anything written
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if argv[0] == "verify":
            assert out.read_text(encoding="utf-8") == printed
        elif argv[0] == "roundtrip":
            assert out.read_bytes() == blob
        else:
            assert check_certificate(parse_certificate(out.read_text(encoding="utf-8"))).ok
    # the output of a roundtrip may be its own input
    assert main(["roundtrip", "--n", "2", "--k", "3", "--demand", "2,1,2", str(path),
                 "--out", str(path)]) == 0
    assert path.read_bytes() == blob


@pytest.mark.parametrize("error", [CachewrightError, KeyboardInterrupt])
def test_work_that_raises_after_writing_leaves_only_what_it_wrote(tmp_path, monkeypatch, error):
    def broken(curve, samples):
        yield "N,K\n"
        raise error("stopped")

    monkeypatch.setattr(cli, "csv_lines", broken)
    out = tmp_path / "curve.csv"
    out.write_bytes(b"x" * 100_000)  # longer than anything written
    argv = ["tradeoff", "--n", "2", "--k", "3", "--out", str(out)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
    assert out.read_bytes() == b"N,K\n"


def test_a_created_output_has_the_mode_that_open_gives(tmp_path):
    made = tmp_path / "made"
    made.open("w").close()
    out = tmp_path / "r.json"
    assert main(["verify", "--n", "2", "--k", "2", "--out", str(out)]) == 0
    assert out.stat().st_mode == made.stat().st_mode


def test_an_output_that_cannot_seek_still_takes_the_output(tmp_path):
    # a character device can seek but not be truncated
    for argv in (["verify", "--n", "2", "--k", "2", "--out"],
                 ["tradeoff", "--n", "2", "--k", "3", "--samples", "2", "--out"],
                 ["converse", "--n", "3", "--k", "4", "--theorem", "2", "--dump"]):
        assert main([*argv, os.devnull]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    assert main(["tradeoff", "--n", "2", "--k", "3", "--samples", "2", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert got[0].decode().splitlines()[0] == tradeoff.CSV_HEADER
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "cachewright", "verify", "--n", "2", "--k", "2",
                          "--out", "/dev/stdout"], cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == ""
    # the report, once from --out and once printed
    half = len(run.stdout) // 2
    assert run.stdout[:half] == run.stdout[half:]
    assert json.loads(run.stdout[:half])["failures"] == []
    run = subprocess.run([sys.executable, "-m", "cachewright", "verify", "--n", "2", "--k", "2",
                          "--out", "/dev/stdout"], cwd=tmp_path, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    assert run.returncode == 0 and run.stderr == b""


def test_both_kernels_decode_the_same_roundtrip(tmp_path, capsys):
    # p = 257 runs the packed lanes, p = 263 the list path; both must decode
    # the input and report the same (M, R) for each scheme
    blob = random.Random("cross-kernel").randbytes(64 * 1024)
    path = tmp_path / "in.bin"
    path.write_bytes(blob)
    for scheme in ("new", "man"):
        reports = set()
        for prime in ([], ["--prime", "263"]):
            for user in ("1", "4"):
                out = tmp_path / f"{scheme}-{len(prime)}-{user}.bin"
                assert main(["roundtrip", "--n", "3", "--k", "4", "--scheme", scheme,
                             "--demand", "1,2,3,1", "--user", user, str(path),
                             "--out", str(out), *prime]) == 0
                assert out.read_bytes() == blob
                lines = capsys.readouterr().out.splitlines()
                reports.add(tuple(line for line in lines if line[:4] in ("M = ", "R = ")))
        assert len(reports) == 1
        assert len(next(iter(reports))) == 2


@pytest.mark.parametrize("args, reason", [
    (["--demand", "1,x,2,3"], "demand '1,x,2,3' is not comma-separated integers"),
    (["--demand", "1,2,3"], "demand '1,2,3' does not list 4 file indices"),
    (["--demand", "1,2,9,1"], "file index 9 outside [1, 3]"),
    (["--demand", "1,2,3,1", "--user", "0"], "--user 0 outside [1, 4]"),
    (["--demand", "1,2,3,1", "--user", "5"], "--user 5 outside [1, 4]"),
])
def test_a_malformed_roundtrip_demand_or_user_is_a_usage_error(tmp_path, sample_file, capsys,
                                                               args, reason):
    out = tmp_path / "out.bin"
    assert main(["roundtrip", "--n", "3", "--k", "4", *args, str(sample_file[0]),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("prime, reason", [
    (PSI_12, "is not prime"),
    (PSI_13, f"is not below {PSI_13}, so it cannot be proved prime"),
])
def test_roundtrip_refuses_a_composite_that_fools_miller_rabin(tmp_path, sample_file, capsys,
                                                              prime, reason):
    assert main(["roundtrip", "--n", "2", "--k", "3", "--prime", str(prime), "--demand", "1,2,1",
                 str(sample_file[0]), "--out", str(tmp_path / "out.bin")]) == 2
    assert capsys.readouterr() == ("", f"error: {prime} {reason}\n")


def test_verify_out_holds_exactly_the_printed_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "2", "--k", "3", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    assert json.loads(out.read_text(encoding="utf-8"))["failures"] == []


def test_converse_prints_why_a_certificate_fails_and_exits_1(capsys, monkeypatch):
    family = cli.FAMILIES[0]
    broken = dataclasses.replace(
        family, certificate=lambda n, k: perturbed(family.certificate(n, k), 0, 1))
    monkeypatch.setattr(cli, "FAMILIES", (broken, *cli.FAMILIES[1:]))
    assert main(["converse", "--n", "3", "--k", "4", "--theorem", "2"]) == 1
    captured = capsys.readouterr()
    reason = check_certificate(broken.certificate(3, 4)).reason
    assert reason and captured.err == f"  reason: {reason}\n"
    assert captured.out.startswith("4M+8R >= 11 FAIL; tight at M=")


@pytest.fixture
def builds(monkeypatch):
    """The parsers built from here on; main's cached parser is dropped before and after."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def test_one_parser_serves_every_call_in_a_process(tmp_path, sample_file, capsys, builds):
    path, blob = sample_file
    out = tmp_path / "decoded.bin"
    work = [["converse", "--n", "3", "--k", "4"],
            ["tradeoff", "--n", "3", "--k", "4", "--samples", "5"],
            ["verify", "--n", "3", "--k", "4"],
            ["roundtrip", "--n", "3", "--k", "4", "--demand", "1,1,2,3", str(path),
             "--out", str(out)]]

    def call(argv):
        code, stdout = main(argv), capsys.readouterr().out
        if argv[0] == "verify":
            stdout = json.loads(stdout)
            del stdout["wall_time"]
        return code, stdout

    first = [call(argv) for argv in work]
    assert [code for code, _ in first] == [0, 0, 0, 0]
    with pytest.raises(SystemExit) as bad:
        main(["verify", "--n", "x", "--k", "4"])
    assert bad.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert main(["verify", "--n", "4", "--k", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as shown:
        main(["--help"])
    assert shown.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cachewright")
    assert [call(argv) for argv in work] == first
    assert out.read_bytes() == blob
    assert len(builds) == 1


def test_names_replaced_after_the_parser_is_built_still_take_effect(tmp_path, sample_file,
                                                                    capsys, monkeypatch, builds):
    def refuse(*args, **kwargs):
        raise CachewrightError("replaced")

    assert main(["converse", "--n", "3", "--k", "4"]) == 0
    monkeypatch.setattr(cli, "run_verification", refuse)
    monkeypatch.setattr(cli, "_filler", refuse)
    capsys.readouterr()
    assert main(["verify", "--n", "2", "--k", "2"]) == 2
    assert main(["roundtrip", "--n", "2", "--k", "3", "--demand", "1,2,1", str(sample_file[0]),
                 "--out", str(tmp_path / "out.bin")]) == 2
    assert capsys.readouterr().err == "error: replaced\n" * 2
    assert len(builds) == 1


@pytest.mark.parametrize("argv, lines", [
    # the report is one 200-byte write, so its reader is gone before the sweep starts
    (["verify", "--n", "3", "--k", "5"], 0),
    # 1.1 MB of CSV outlasts the pipe's buffer, so its reader leaves after one line
    (["tradeoff", "--n", "3", "--k", "4", "--samples", "20000"], 1),
])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, argv, lines):
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    # each case runs with stdout buffered and, under PYTHONUNBUFFERED=1, unbuffered, where
    # a text write hands the raw file the whole text once
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "rb")
        if not lines:
            reader.close()
        with subprocess.Popen([sys.executable, "-m", "cachewright", *argv], cwd=tmp_path,
                              env={**env, **unbuffered}, stdout=write_fd,
                              stderr=subprocess.PIPE, text=True) as proc:
            os.close(write_fd)
            for _ in range(lines):
                assert reader.readline()
            reader.close()
            _, err = proc.communicate(timeout=120)
        assert (unbuffered, proc.returncode, err) == (unbuffered, 2, "")


NO_SPACE = f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["tradeoff", "--n", "2", "--k", "4", "--out"],
    ["verify", "--n", "2", "--k", "3", "--out"],
    ["converse", "--n", "2", "--k", "4", "--dump"],
    ["roundtrip", "--n", "2", "--k", "3", "--demand", "1,2,1", "INPUT", "--out"],
], ids=lambda argv: argv[0])
def test_an_output_that_takes_no_more_exits_2_with_one_error_line(sample_file, capsys, argv):
    argv = [str(sample_file[0]) if arg == "INPUT" else arg for arg in argv]
    assert main([*argv, "/dev/full"]) == 2
    assert capsys.readouterr().err == NO_SPACE


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["tradeoff", "--n", "2", "--k", "4"],
    ["converse", "--n", "2", "--k", "4"],
    ["verify", "--n", "2", "--k", "3"],
], ids=lambda argv: argv[0])
def test_a_full_stdout_exits_2_with_one_error_line(tmp_path, argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "w") as full:
            run = subprocess.run([sys.executable, "-m", "cachewright", *argv], cwd=tmp_path,
                                 env={**env, **unbuffered}, stdout=full,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        assert (unbuffered, run.returncode, run.stderr) == (unbuffered, 2, NO_SPACE)


def test_a_created_output_that_takes_no_more_is_removed(tmp_path, capsys, monkeypatch):
    def no_space(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full(path, mode, **kwargs):
        fh = opened(path, mode, **kwargs)
        fh.write = no_space
        return fh

    opened = cli._open
    monkeypatch.setattr(cli, "_open", full)
    out = tmp_path / "curve.csv"
    argv = ["tradeoff", "--n", "2", "--k", "3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == NO_SPACE
    assert not out.exists()
    out.write_bytes(b"8 bytes.")  # a file that was there is left as it was
    assert main(argv) == 2
    assert capsys.readouterr().err == NO_SPACE
    assert out.read_bytes() == b"8 bytes."
