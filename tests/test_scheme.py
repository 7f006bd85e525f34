"""The coefficient-program engine, checked on the programs and on a symbolic library."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from cachewright.coded_placement import NEW
from cachewright.model import NetworkConfig, demand_orbits, enumerate_demands, pair_order
from cachewright.verify import SCHEMES


def unit_vector_files(scheme, cfg):
    """File n's bytes, read as subfiles: subfile t is the unit vector e_(n,t) of length N*S."""
    count = len(scheme.keys(cfg))
    length = cfg.n * count
    files = []
    for n in range(cfg.n):
        blob = bytearray(count * length)
        for t in range(count):
            blob[t * length + n * count + t] = 1
        files.append(bytes(blob))
    return files


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_user_decodes_a_unit_vector_library(name, k):
    # every step is linear in the library, so decoding the unit vectors exactly
    # proves the decoder right for every file content over F_257
    scheme = SCHEMES[name]
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        files = unit_vector_files(scheme, cfg)
        library = [scheme.split(blob, cfg) for blob in files]
        caches = scheme.place(library, cfg)
        for demand in enumerate_demands(cfg):
            sent = scheme.deliver(library, demand, cfg)
            for cache in caches:
                assert scheme.decode(cache, sent, cfg) == files[demand[cache.user - 1] - 1], \
                    (n, demand, cache.user)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_pattern_is_constant_on_each_orbit(name):
    # verify compiles each orbit once, for the pattern of its first demand
    scheme = SCHEMES[name]
    for k in range(1, 9):
        for n in range(1, k + 1):
            cfg = NetworkConfig(n, k)
            for orbit in demand_orbits(cfg):
                pattern = scheme.pattern(orbit[0], cfg)
                assert all(scheme.pattern(d, cfg) == pattern for d in orbit), (n, k, orbit[0])


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_delivering_to_and_decoding_every_user_compiles_the_pattern_once(name):
    compiled = []

    def serving(cfg, pattern):
        compiled.append(pattern)
        return SCHEMES[name].serving.__wrapped__(cfg, pattern)

    scheme = dataclasses.replace(SCHEMES[name], serving=serving)
    cfg, demand = NetworkConfig(3, 5), (1, 2, 1, 3, 2)
    files = unit_vector_files(scheme, cfg)
    library = [scheme.split(blob, cfg) for blob in files]
    sent = scheme.deliver(library, demand, cfg)
    for cache in scheme.place(library, cfg):
        assert scheme.decode(cache, sent, cfg) == files[demand[cache.user - 1] - 1]
    assert compiled == [scheme.pattern(demand, cfg)]


def patterns(k):
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        for demand in enumerate_demands(cfg):
            if NEW.pattern(demand, cfg) == demand:
                yield cfg, demand


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stage1_recovery_reads_only_broadcast_and_uncoded_cache(k):
    pairs = set(pair_order(k))
    for cfg, pattern in patterns(k):
        for user in range(1, k + 1):
            program = NEW.decoding(cfg, pattern, user)
            for i in range(1, k + 1):
                if i == user:
                    continue
                for _, (s, key) in program[(i, user)]:  # the step that recovers W^{i,user}
                    assert key < k if s == k else s < k and key in pairs, \
                        (pattern, user, i, (s, key))


def test_a_copy_step_passes_the_vector_through():
    cfg = NetworkConfig(2, 3)
    library = [NEW.split(bytes(range(6 * n, 6 * n + 6)), cfg) for n in (1, 2)]
    (cache,) = NEW.place(library, cfg, users=(1,))
    assert cache.parts[1][(2, 3)] is library[1].parts[(2, 3)]
    assert cache.parts[-1] == {"sum": (6 + 12,)}  # W_1^{12} + W_2^{12}, one FieldCtx.combine


def _programs(scheme, cfg, patterns) -> list:
    """Every step compiled at cfg: each user's placement, then per pattern the delivery
    and each user's decoding, from the compilers themselves rather than their caches."""
    users = range(1, cfg.k + 1)
    steps = [step for user in users for step in scheme.caching(cfg, user).values()]
    for pattern in patterns:
        delivery, decoders = scheme.serving.__wrapped__(cfg, pattern)
        assert len(decoders) == cfg.k
        steps += delivery.values()
        for decoder in decoders:
            steps += decoder.values()
    return steps


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_the_compilers_run_over_q_and_agree_with_f257(name):
    # a cfg without p, whose field divides in Q: the compilers read no modulus, each
    # rational coefficient reduces mod 257 to the F_257 one, and the denominators'
    # lcm is 2 lcm(1..K-1), so NetworkConfig's rule p > K keeps every one invertible
    scheme = SCHEMES[name]
    rational = SimpleNamespace(inv=lambda a: 1 / Fraction(a))
    for k in range(2, 7):
        denominators = set()
        for n in range(1, k + 1):
            cfg = NetworkConfig(n, k)
            exact = SimpleNamespace(n=n, k=k, field=rational)
            patterns = sorted({scheme.pattern(d, cfg) for d in enumerate_demands(cfg)})
            for over_q, over_p in zip(_programs(scheme, exact, patterns),
                                      _programs(scheme, cfg, patterns), strict=True):
                assert [key for _, key in over_q] == [key for _, key in over_p]
                for (q, _), (c, _) in zip(over_q, over_p):
                    q = Fraction(q)
                    assert q.numerator * pow(q.denominator, -1, 257) % 257 == c % 257
                    denominators.add(q.denominator)
        assert lcm(*denominators) == (2 * lcm(*range(1, k)) if name == "new" else 1), k


def _run_names(program: dict, slots: list[set], where) -> set:
    """The names program defines, checking that every term reads a name its slot holds
    when the step runs; slots[-1] collects the program's own results."""
    for name, step in program.items():
        for _, (slot, read) in step:
            assert read in slots[slot], (where, name, (slot, read))
        slots[-1].add(name)
    return slots[-1]


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_every_program_reads_only_names_that_exist_when_it_runs(name, k):
    scheme = SCHEMES[name]
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        keys = set(scheme.keys(cfg))
        kept = {}  # user -> the names of its cache's slots 0..N
        for user in range(1, k + 1):
            names = _run_names(scheme.caching(cfg, user), [keys] * n + [set()], user)
            assert {slot for slot, _ in names} <= set(range(n + 1))
            kept[user] = [{key for slot, key in names if slot == f} for f in range(n + 1)]
        demands = {}  # one demand of each pattern
        for demand in enumerate_demands(cfg):
            demands.setdefault(scheme.pattern(demand, cfg), demand)
        for pattern, demand in demands.items():
            sent = _run_names(scheme.delivery(cfg, pattern), [keys] * k + [set()], demand)
            assert sorted(sent) == list(range(len(sent)))  # each packet's position on the wire
            for user, cached in kept.items():
                program = scheme.decoding(cfg, pattern, user)
                held = [cached[f - 1] for f in demand]
                _run_names(program, [*held, sent, cached[n], set()], (demand, user))
                assert keys <= set(program), (demand, user)
