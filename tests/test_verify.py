from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from cachewright import cli, field, scheme as engine, verify
from cachewright.converse.tightness import scheme_point
from cachewright.errors import CachewrightError, ConfigMismatch, SymbolOutOfByteRange
from cachewright.model import NetworkConfig, enumerate_demands
from cachewright.verify import SCHEMES, run_verification


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
    # the sweep takes a pattern's demands together, so a program cache far smaller than
    # the 540 demands still always hits: each pattern is compiled once, delivery and all
    # K decoders together, and costs one delivery run and one decoding run per user
    scheme, cfg = SCHEMES[name], NetworkConfig(3, 6)
    patterns = {scheme.pattern(d, cfg) for d in enumerate_demands(cfg)}
    runs = []

    def counted(program, slots, fld):
        runs.append(program)
        return run(program, slots, fld)

    run = engine.run
    monkeypatch.setattr(engine, "run", counted)
    scheme.serving.cache_clear()
    assert run_verification(3, 6, name).ok
    assert scheme.serving.cache_info().misses == len(patterns)
    # K placement runs and the one delivery that measures (M, R) come on top
    assert len(runs) == len(patterns) * (1 + cfg.k) + cfg.k + 1


def test_a_sweep_gathers_each_column_once(monkeypatch):
    # a group's demands are its pattern's relabellings in one fixed order, so slot u-1's
    # column depends only on the file user u requests: across the 90 patterns at (3, 6)
    # each subfile a program reads is gathered and packed once per column, not per pattern
    scheme, cfg = SCHEMES["new"], NetworkConfig(3, 6)
    groups = {}
    for demand in enumerate_demands(cfg):
        groups.setdefault(scheme.pattern(demand, cfg), []).append(demand)
    keys = scheme.keys(cfg)
    reads = set()  # (whose data, column, key) for every subfile a program or the check reads
    for pattern, group in groups.items():
        columns = [tuple(files) for files in zip(*group)]
        reads |= {("library", columns[s], key)
                  for step in scheme.delivery(cfg, pattern).values() for _, (s, key) in step}
        for user in range(1, cfg.k + 1):
            reads |= {("library", columns[user - 1], key) for key in keys}  # what it wants
            for step in scheme.decoding(cfg, pattern, user).values():
                for _, (s, key) in step:
                    if s < cfg.k:
                        reads.add((("cache", user), columns[s], key))
                    elif s == cfg.k + 1:
                        reads.add((("mixed", user), len(group), key))
    packed = []

    def counted(fld, symbols):
        if len(symbols) > 1:  # the library's one-symbol subfiles are split through pack too
            packed.append(tuple(symbols))
        return pack(fld, symbols)

    pack = field.FieldCtx.pack
    monkeypatch.setattr(field.FieldCtx, "pack", counted)
    assert run_verification(3, 6, "new").ok
    assert len(groups) == 90
    assert len({column for whose, column, _ in reads if whose == "library"}) == cfg.n
    assert len(packed) == len(reads) == 519
    assert len(packed) < len(groups) * cfg.k * len(keys) // 30


def _mutant(scheme, user: int, term: int, coef: int | None = None, slot: int | None = None):
    """scheme with term `term` of user `user`'s first named decoding step given another
    coefficient or read from another slot."""
    def serving(cfg, pattern):
        delivery, decoders = scheme.serving(cfg, pattern)
        steps = decoders[user - 1]
        name = next(iter(steps))
        first = list(steps[name])
        c, (s, key) = first[term]
        first[term] = (c if coef is None else coef, (s if slot is None else slot, key))
        mutated = {**steps, name: tuple(first)}
        return delivery, (*decoders[:user - 1], mutated, *decoders[user:])
    return dataclasses.replace(scheme, serving=serving)


def _per_demand_failures(scheme, cfg) -> tuple[list[dict], int]:
    """The sweep as a loop over D through Scheme.deliver and Scheme.decode, with the
    library verify builds; also how many decodes yielded a symbol outside a byte."""
    plain = [random.Random(f"cachewright-{cfg.n}-{cfg.k}-{i}").randbytes(len(scheme.keys(cfg)))
             for i in range(cfg.n)]
    library = [scheme.split(blob, cfg) for blob in plain]
    caches = scheme.place(library, cfg)
    failures, outside = [], 0
    for demand in enumerate_demands(cfg):
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
    # 1 packs even one-symbol subfiles, 10**9 packs nothing; the failures are compared too
    if mutant:
        monkeypatch.setitem(verify.SCHEMES, name, _mutant(SCHEMES[name], **MUTANTS[mutant][1]))
    reports = []
    for shortest in (1, field._PACKED_MIN, 10 ** 9):
        monkeypatch.setattr(field, "_PACKED_MIN", shortest)
        report = run_verification(n, k, name)
        report.wall_time = 0.0
        reports.append(report.to_json())
    assert reports[0] == reports[1] == reports[2]
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
    assert report.demands_checked == len(list(enumerate_demands(cfg)))


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

def test_wide_groups_take_the_packed_kernel_only_at_257(monkeypatch):
    # at (5, 6) every coded-scheme pattern has 5! = 120 demands, so its vectors are
    # 120 symbols wide: packed at p = 257, the list path at p = 263
    packed, listed = [], []

    def spy(terms):
        packed.append(terms[0][1].n)
        return kernel(terms)

    def list_spy(p, terms):
        listed.append(len(terms[0][1]))
        return by_list(p, terms)

    kernel, by_list = field._combine_packed, field._combine_list
    monkeypatch.setattr(field, "_combine_packed", spy)
    monkeypatch.setattr(field, "_combine_list", list_spy)
    default = run_verification(5, 6, "new")
    assert default.ok and set(packed) == {120} and max(listed) < field._PACKED_MIN
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


def test_workers_get_whole_patterns(monkeypatch):
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
    scheme, cfg = SCHEMES["new"], NetworkConfig(3, 5)
    assert run_verification(3, 5, "new", jobs=3).ok
    demands = list(enumerate_demands(cfg))
    owner = {}
    for i, (*_, groups) in enumerate(chunks):
        for group in groups:
            for d in group:
                assert owner.setdefault(scheme.pattern(d, cfg), i) == i
    assert len(chunks) == 3
    assert sorted(d for *_, groups in chunks for g in groups for d in g) == demands
    assert chunks[0][-1][0][0] == demands[0]  # (M, R) comes from D's first demand


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
