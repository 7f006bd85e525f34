from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from cachewright import cli, field, scheme as engine, verify
from cachewright.converse.tightness import scheme_point
from cachewright.errors import CachewrightError, ConfigMismatch, SymbolOutOfByteRange
from cachewright.model import NetworkConfig, demand_orbits
from cachewright.verify import SCHEMES, run_verification

from demand_set import all_demands


def test_jobs_capped_at_cpu_count(monkeypatch):
    serial = run_verification(2, 4, "new", jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started on a one-CPU machine")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(verify, "Pool", no_pool)
    capped = run_verification(2, 4, "new", jobs=3)
    assert capped.ok
    serial.wall_time = capped.wall_time = 0.0
    assert capped.to_json() == serial.to_json()


def _long_library(scheme, cfg):
    """Subfiles of 70 symbols, long enough for the packed kernel."""
    rng = random.Random(f"long-{cfg.n}-{cfg.k}")
    return [scheme.split(rng.randbytes(70 * len(scheme.keys(cfg))), cfg) for _ in range(cfg.n)]


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("n, k", [(3, 4), (5, 7)])
def test_placing_one_user_matches_placing_all(name, n, k):
    scheme, cfg = SCHEMES[name], NetworkConfig(n, k)
    library = _long_library(scheme, cfg)
    everyone = scheme.place(library, cfg)
    assert [c.user for c in everyone] == list(range(1, k + 1))
    for user in range(1, k + 1):
        (one,) = scheme.place(library, cfg, users=(user,))
        assert vars(one) == vars(everyone[user - 1])
    assert scheme.place(library, cfg, users=(k, 1)) == [everyone[k - 1], everyone[0]]


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("user", [0, 5, -1])
def test_placing_a_user_outside_the_network_is_refused(name, user):
    scheme, cfg = SCHEMES[name], NetworkConfig(3, 4)
    with pytest.raises(CachewrightError, match=f"user {user} outside"):
        scheme.place(_long_library(scheme, cfg), cfg, users=(1, user))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_sweep_compiles_each_pattern_once(name, monkeypatch):
    # a chunk of orbits compiles a delivery and K decoders only where an orbit's pattern
    # differs from the last one's: the coded scheme's 90 orbits at (3, 6) are its 90
    # patterns, so it compiles once per orbit, and the corner scheme's one pattern compiles
    # once per chunk, on a whole run and on every second orbit, as a --jobs 2 worker gets.
    # An orbit costs one delivery run and one decoding run per user, and (M, R) is read off
    # the first orbit's broadcast, with no compile or run of its own
    scheme, cfg = SCHEMES[name], NetworkConfig(3, 6)
    orbits = list(demand_orbits(cfg))
    served, decoded, runs = [], [], []

    def serving(cfg, pattern):
        served.append(pattern)
        delivery, decoder = scheme.serving(cfg, pattern)

        def counted_decoder(user):
            decoded.append((pattern, user))
            return decoder(user)
        return delivery, counted_decoder

    def counted(program, slots, fld):
        runs.append(program)
        return run(program, slots, fld)

    run = engine.run
    monkeypatch.setattr(engine, "run", counted)
    monkeypatch.setitem(verify.SCHEMES, name, dataclasses.replace(scheme, serving=serving))
    assert len(orbits) == 90
    for chunk in (orbits, orbits[1::2]):
        served.clear(), decoded.clear(), runs.clear()
        if chunk is orbits:
            assert run_verification(3, 6, name).ok
        else:
            assert verify._check_chunk((3, 6, cfg.p, name, chunk))[1] == []
        patterns = [scheme.pattern(first, cfg) for first in chunk]
        assert served == (patterns if name == "new" else [()])
        assert len(set(served)) == len(served)
        assert decoded == [(pattern, user) for pattern in served for user in range(1, cfg.k + 1)]
        # the K placement runs come on top
        assert len(runs) == len(chunk) * (1 + cfg.k) + cfg.k


def _recaching(scheme, user: int, make):
    """scheme with each step of user `user`'s caching program that copies a subfile of the
    library, ((1, (f, key)),) under (f, key), replaced by make(f, key)."""
    def caching(cfg, k):
        program = scheme.caching(cfg, k)
        if k != user:
            return program
        return {name: make(*name) if step == ((1, name),) else step
                for name, step in program.items()}
    return dataclasses.replace(scheme, caching=caching)


def test_a_cache_copy_that_is_another_subfile_fails_its_user(monkeypatch):
    # user 2 caches W^{13} of every file as a copy of W^{14}: a copy of the library, but
    # not of the subfile its key names, so the piece it yields differs and fails user 2
    cfg = NetworkConfig(3, 5)
    broken = _recaching(SCHEMES["new"], 2, lambda f, key: (
        ((1, (f, (1, 4))),) if key == (1, 3) else ((1, (f, key)),)))
    expected, _ = _per_demand_failures(broken, cfg)
    monkeypatch.setitem(verify.SCHEMES, "new", broken)
    report = run_verification(3, 5, "new")
    assert report.failures and {f["user"] for f in report.failures} == {2}
    assert report.failures == sorted(expected, key=lambda f: (f["demand"], f["user"]))


def test_only_combined_pieces_are_compared_by_value(monkeypatch):
    # a user's 2K-2 decoded pieces that are combinations compare by value, one Lanes.__eq__
    # each; its copies are the relabelled library's own subfiles and pass on identity
    cfg = NetworkConfig(3, 6)
    calls = []

    def counted(self, other):
        calls.append(1)
        return eq(self, other)

    eq = field.Lanes.__eq__
    monkeypatch.setattr(field.Lanes, "__eq__", counted)
    assert run_verification(3, 6, "new").ok
    assert 0 < len(calls) <= len(list(demand_orbits(cfg))) * cfg.k * (2 * cfg.k - 2) == 5400


def _mutant(scheme, user: int, term: int, coef: int | None = None, slot: int | None = None):
    """scheme with term `term` of user `user`'s first named decoding step given another
    coefficient or read from another slot."""
    def serving(cfg, pattern):
        delivery, decoder = scheme.serving(cfg, pattern)

        def mutated(k: int) -> dict:
            steps = decoder(k)
            if k != user:
                return steps
            name = next(iter(steps))
            first = list(steps[name])
            c, (s, key) = first[term]
            first[term] = (c if coef is None else coef, (s if slot is None else slot, key))
            return {**steps, name: tuple(first)}
        return delivery, mutated
    return dataclasses.replace(scheme, serving=serving)


def _per_demand_failures(scheme, cfg) -> tuple[list[dict], int]:
    """The sweep as a loop over D through Scheme.deliver and Scheme.decode, with the
    library verify builds; also how many decodes yielded a symbol outside a byte."""
    plain = [random.Random(f"cachewright-{cfg.n}-{cfg.k}-{i}").randbytes(len(scheme.keys(cfg)))
             for i in range(cfg.n)]
    library = [scheme.split(blob, cfg) for blob in plain]
    caches = scheme.place(library, cfg)
    failures, outside = [], 0
    for demand in all_demands(cfg):
        sent = scheme.deliver(library, demand, cfg)
        for cache in caches:
            try:
                right = scheme.decode(cache, sent, cfg) == plain[demand[cache.user - 1] - 1]
            except SymbolOutOfByteRange:
                right, outside = False, outside + 1
            if not right:
                failures.append({"demand": list(demand), "user": cache.user,
                                 "reason": "decoded bytes differ"})
    return failures, outside


# at (3, 5) each coefficient mutant decodes some symbol to 256; the slot mutant
# fails only the demands where users 2 and 3 request different files
MUTANTS = {
    "man-coefficient": ("man", dict(user=1, term=0, coef=5)),
    "new-coefficient": ("new", dict(user=1, term=1, coef=10)),
    "man-slot": ("man", dict(user=1, term=1, slot=2)),
}


@pytest.mark.parametrize("name, n, k, mutant", [
    *[(name, n, k, None) for name in sorted(SCHEMES) for n, k in [(2, 4), (3, 5), (5, 5)]],
    ("new", 3, 5, "new-coefficient"),
])
def test_verify_json_is_the_same_at_every_packing_threshold(name, n, k, mutant, monkeypatch):
    # the default term limit runs every combine packed, a limit of 0 runs none; the
    # failures are compared too, counted first and then in full, so a difference fails fast
    if mutant:
        monkeypatch.setitem(verify.SCHEMES, name, _mutant(SCHEMES[name], **MUTANTS[mutant][1]))
    kernel, packed = field._combine_packed, []
    monkeypatch.setattr(field, "_combine_packed",
                        lambda step, slots: packed.append(1) or kernel(step, slots))
    reports, counts = [], []
    for limit in (field._PACKED_MAX_TERMS, 0):
        monkeypatch.setattr(field, "_PACKED_MAX_TERMS", limit)
        packed.clear()
        report = run_verification(n, k, name)
        report.wall_time = 0.0
        reports.append(report.to_json())
        counts.append(len(packed))
    packed_run, listed_run = map(json.loads, reports)
    assert packed_run["demands_checked"] == listed_run["demands_checked"]
    assert len(packed_run["failures"]) == len(listed_run["failures"])
    assert packed_run["failures"] == listed_run["failures"]
    assert packed_run == listed_run
    assert counts[0] > 0 and counts[1] == 0
    assert ('"failures": []' in reports[0]) == (mutant is None)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_batched_sweep_fails_what_a_per_demand_loop_fails(mutant, monkeypatch):
    name, change = MUTANTS[mutant]
    broken, cfg = _mutant(SCHEMES[name], **change), NetworkConfig(3, 5)
    expected, outside = _per_demand_failures(broken, cfg)
    assert expected and (outside > 0) == ("coef" in change)
    monkeypatch.setitem(verify.SCHEMES, name, broken)
    report = run_verification(3, 5, name)
    assert report.failures == sorted(expected, key=lambda f: (f["demand"], f["user"]))
    assert report.demands_checked == len(all_demands(cfg))


def test_a_decoded_symbol_outside_a_byte_is_a_failure_not_a_usage_error(monkeypatch, capsys):
    broken = _mutant(SCHEMES["man"], **MUTANTS["man-coefficient"][1])
    assert _per_demand_failures(broken, NetworkConfig(3, 5))[1] > 0
    monkeypatch.setitem(verify.SCHEMES, "man", broken)
    report = run_verification(3, 5, "man")
    assert report.ok is False and report.failures
    assert cli.main(["verify", "--n", "3", "--k", "5", "--scheme", "man"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures



@pytest.mark.parametrize("demand", ["1,2,3,1,1", "1,1,2,3,1"])
def test_a_roundtrip_decoding_a_symbol_outside_a_byte_fails_with_exit_1(demand, tmp_path,
                                                                         monkeypatch, capsys):
    broken = _mutant(SCHEMES["man"], **MUTANTS["man-coefficient"][1])
    monkeypatch.setitem(verify.SCHEMES, "man", broken)
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(random.Random("outside-a-byte").randbytes(3000))
    assert cli.main(["roundtrip", "--n", "3", "--k", "5", "--scheme", "man", "--demand", demand,
                     str(source), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "roundtrip FAILED: symbol 256 is not a byte; content is coded\n"
    assert captured.out == "M = 12/5\nR = 1/5\n"
    assert out.read_bytes() == b""  # no bytes to write, and no usage error to remove it
    out.write_bytes(b"8 bytes.")  # a file that was there is emptied too
    assert cli.main(["roundtrip", "--n", "3", "--k", "5", "--scheme", "man", "--demand", demand,
                     str(source), "--out", str(out)]) == 1
    assert out.read_bytes() == b""

def test_wide_groups_take_the_packed_kernel_only_at_257(monkeypatch):
    # at (5, 6) every orbit has 5! = 120 demands, so the relabelled library's vectors are
    # 120 symbols wide: every combine is packed at p = 257, and takes the list path at 263
    packed, listed = [], []

    def spy(step, slots):
        _, (slot, key) = step[0]
        packed.append(slots[slot][key].n)
        return kernel(step, slots)

    def list_spy(p, terms):
        listed.append(len(terms[0][1]))
        return by_list(p, terms)

    kernel, by_list = field._combine_packed, field._combine_list
    monkeypatch.setattr(field, "_combine_packed", spy)
    monkeypatch.setattr(field, "_combine_list", list_spy)
    default = run_verification(5, 6, "new")
    assert default.ok and set(packed) == {120} and not listed
    packed.clear()
    other = run_verification(5, 6, "new", p=263)
    assert other.ok and not packed and 120 in listed
    assert default.demands_checked == other.demands_checked == 1800
    assert (default.memory, default.rate) == (other.memory, other.rate)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_two_jobs_report_what_one_job_reports(name, monkeypatch):
    serial = run_verification(4, 6, name, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = run_verification(4, 6, name, jobs=2)
    serial.wall_time = parallel.wall_time = 0.0
    assert parallel.to_json() == serial.to_json()


def test_workers_get_whole_orbits(monkeypatch):
    # workers take whole orbits, so the corner scheme's sweep, all of one pattern, splits too
    chunks = []

    class InlinePool:
        def __init__(self, processes):
            assert processes == 3

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            chunks.extend(args)
            return list(map(fn, args))

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verify, "Pool", InlinePool)
    cfg = NetworkConfig(3, 5)
    orbits = list(demand_orbits(cfg))
    for name in sorted(SCHEMES):
        chunks.clear()
        assert run_verification(3, 5, name, jobs=3).ok
        assert len(chunks) == 3 and all(chunk for *_, chunk in chunks)
        assert sorted(orbit for *_, chunk in chunks for orbit in chunk) == sorted(orbits)
        assert chunks[0][-1][0] == all_demands(cfg)[0]  # (M, R) comes from D's first demand


def test_a_sweep_holds_first_demands_not_d():
    # a run holds the S(K, N) first demands, not the |D| demands of their orbits: (6, 8) has
    # 266 orbits of 720 demands, and the corner scheme's library is one symbol per subfile
    tracemalloc.start()
    try:
        report = run_verification(6, 8, "man")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.demands_checked == 191520
    assert peak < 2 * 2**20, peak


def _without_stage2_head(scheme):
    """scheme with each user k's decoder missing its stage-2 step (k, succ(k))."""
    def serving(cfg, pattern):
        delivery, decoder = scheme.serving(cfg, pattern)
        return delivery, lambda k: {key: step for key, step in decoder(k).items()
                                    if key != (k, k % cfg.k + 1)}
    return dataclasses.replace(scheme, serving=serving)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 5)])
def test_a_key_neither_decoded_nor_cached_is_a_usage_error(n, k, monkeypatch, capsys, tmp_path):
    # at K = 2 no other step reads W^{k,succ(k)}, so only its key is missing from the pieces;
    # at K = 5 the stage-2 steps that peel off W^{kj} read it first
    monkeypatch.setitem(verify.SCHEMES, "new", _without_stage2_head(SCHEMES["new"]))
    message = "user 1 neither decodes nor caches (1, 2)"
    with pytest.raises(ConfigMismatch, match=f"^{re.escape(message)}$"):
        run_verification(n, k, "new")
    source = tmp_path / "in.bin"
    source.write_bytes(b"hello world")
    demand = ",".join(str(i % n + 1) for i in range(k))
    for argv in (["verify", "--n", str(n), "--k", str(k)],
                 ["roundtrip", "--n", str(n), "--k", str(k), "--demand", demand, "--user", "1",
                  str(source), "--out", str(tmp_path / "out.bin")]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "out.bin").exists()


def _smallest_prime_above(k: int) -> int:
    return next(p for p in itertools.count(k + 1) if p % 2 and field.is_prime(p))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_pair_verifies_at_the_smallest_prime_above_k(name):
    for k in range(2, 7):
        p = _smallest_prime_above(k)
        for n in range(1, k + 1):
            report = run_verification(n, k, name, p=p)
            closed = (scheme_point(n, k) if name == "new"
                      else (Fraction(n * (k - 1), k), Fraction(1, k)))
            assert report.ok and report.config["p"] == p, (n, k)
            assert (report.memory, report.rate) == closed, (n, k)


@pytest.mark.parametrize("mutant", ["man-coefficient", "new-coefficient"])
def test_a_mutated_coefficient_fails_the_sweep_at_a_small_prime(mutant, monkeypatch):
    name, change = MUTANTS[mutant]
    monkeypatch.setitem(verify.SCHEMES, name, _mutant(SCHEMES[name], **change))
    report = run_verification(3, 5, name, p=_smallest_prime_above(5))
    assert report.config["p"] == 7 and not report.ok
    assert {f["user"] for f in report.failures} == {change["user"]}


def test_an_unknown_scheme_is_refused():
    with pytest.raises(ConfigMismatch, match="^unknown scheme 'yu'; pick one of "):
        run_verification(2, 3, "yu")


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_are_refused_not_clamped(jobs):
    with pytest.raises(ConfigMismatch, match=f"^jobs {jobs} is below 1$"):
        run_verification(2, 3, jobs=jobs)
