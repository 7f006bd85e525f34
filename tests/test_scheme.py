"""The coefficient-program engine, checked on the programs and on a symbolic library."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from cachewright import baselines, cli, coded_placement
from cachewright.coded_placement import NEW
from cachewright.model import NetworkConfig, SubfileGrid, demand_orbits, pair_order
from cachewright.verify import SCHEMES

from demand_set import all_demands


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
        for demand in all_demands(cfg):
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
def test_each_deliver_and_decode_compiles_its_pattern_once(name):
    # a Scheme keeps no programs: deliver compiles the pattern's delivery, and each decode
    # compiles the pattern again with only its own user's decoder
    compiled = []

    def serving(cfg, pattern):
        compiled.append(pattern)
        delivery, decoder = SCHEMES[name].serving(cfg, pattern)

        def counted(user):
            compiled.append(user)
            return decoder(user)
        return delivery, counted

    scheme = dataclasses.replace(SCHEMES[name], serving=serving)
    cfg, demand = NetworkConfig(3, 5), (1, 2, 1, 3, 2)
    pattern = scheme.pattern(demand, cfg)
    files = unit_vector_files(scheme, cfg)
    library = [scheme.split(blob, cfg) for blob in files]
    sent = scheme.deliver(library, demand, cfg)
    assert compiled == [pattern]
    for cache in scheme.place(library, cfg):
        compiled.clear()
        assert scheme.decode(cache, sent, cfg) == files[demand[cache.user - 1] - 1]
        assert compiled == [pattern, cache.user]


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_roundtrip_compiles_its_pattern_once(name, tmp_path, monkeypatch):
    # cachewright roundtrip hands one compile to both its delivery and its decode
    compiled, chosen = [], SCHEMES[name]

    def serving(cfg, pattern):
        compiled.append(pattern)
        return chosen.serving(cfg, pattern)

    monkeypatch.setitem(cli.SCHEMES, name, dataclasses.replace(chosen, serving=serving))
    source = tmp_path / "in.bin"
    source.write_bytes(b"hello world, twice over")
    for demand, user in (("1,2,1,3,2", "4"), ("3,3,1,2,1", "1")):
        compiled.clear()
        assert cli.main(["roundtrip", "--n", "3", "--k", "5", "--scheme", name, "--demand",
                         demand, "--user", user, str(source), "--out",
                         str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == source.read_bytes()
        cfg = NetworkConfig(3, 5)
        assert compiled == [chosen.pattern(tuple(map(int, demand.split(","))), cfg)]


@pytest.mark.parametrize("name, module", [("new", coded_placement), ("man", baselines)])
def test_a_roundtrip_compiles_only_its_users_decoder(name, module, tmp_path, monkeypatch):
    compiled = []

    def decoding(cfg, *args):
        compiled.append(args[-1])
        return compile_one(cfg, *args)

    compile_one = module._decoding
    monkeypatch.setattr(module, "_decoding", decoding)
    source = tmp_path / "in.bin"
    source.write_bytes(b"hello world")
    assert cli.main(["roundtrip", "--n", "3", "--k", "5", "--scheme", name, "--demand",
                     "1,2,1,3,2", "--user", "4", str(source), "--out",
                     str(tmp_path / "out.bin")]) == 0
    assert compiled == [4]


def patterns(k):
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        for demand in all_demands(cfg):
            if NEW.pattern(demand, cfg) == demand:
                yield cfg, demand


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stage1_recovery_reads_only_broadcast_and_uncoded_cache(k):
    pairs = set(pair_order(k))
    for cfg, pattern in patterns(k):
        _, decoder = NEW.serving(cfg, pattern)
        for user in range(1, k + 1):
            program = decoder(user)
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
    and each user's decoding."""
    users = range(1, cfg.k + 1)
    steps = [step for user in users for step in scheme.caching(cfg, user).values()]
    for pattern in patterns:
        delivery, decoder = scheme.serving(cfg, pattern)
        steps += delivery.values()
        for user in users:
            steps += decoder(user).values()
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
            patterns = sorted({scheme.pattern(d, cfg) for d in all_demands(cfg)})
            for over_q, over_p in zip(_programs(scheme, exact, patterns),
                                      _programs(scheme, cfg, patterns), strict=True):
                assert [key for _, key in over_q] == [key for _, key in over_p]
                for (q, _), (c, _) in zip(over_q, over_p):
                    q = Fraction(q)
                    assert q.numerator * pow(q.denominator, -1, 257) % 257 == c % 257
                    denominators.add(q.denominator)
        assert lcm(*denominators) == (2 * lcm(*range(1, k)) if name == "new" else 1), k


def _combine_over_q(terms) -> tuple:
    """The sum of each coefficient times its vector, exactly."""
    return tuple(sum(c * v[i] for c, v in terms) for i in range(len(terms[0][1])))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_send_and_recover_run_over_q_on_an_unhashable_cfg(name):
    # the engine itself over Q, with a cfg no cache could key on: subfile t of file f is the
    # unit vector e_(f,t), so a user that gets back exactly its file's unit vectors decodes
    # every library, for every pattern at every K <= 4
    scheme = SCHEMES[name]
    rational = SimpleNamespace(inv=lambda a: 1 / Fraction(a), combine=_combine_over_q)
    for k in range(2, 5):
        for n in range(1, k + 1):
            cfg = SimpleNamespace(n=n, k=k, field=rational)
            keys = scheme.keys(cfg)
            width = n * len(keys)
            library = [SubfileGrid({key: tuple(int(i == f * len(keys) + t) for i in range(width))
                                    for t, key in enumerate(keys)}, width, 0) for f in range(n)]
            caches = scheme.place(library, cfg)
            demands = {}  # one demand of each pattern
            for demand in all_demands(cfg):
                demands.setdefault(scheme.pattern(demand, cfg), demand)
            for pattern, demand in demands.items():
                delivery, decoder = scheme.serving(cfg, pattern)
                sent = scheme.send(cfg, delivery, [library[f - 1].parts for f in demand])
                for cache in caches:
                    got = scheme.recover(cfg, decoder(cache.user),
                                         [cache.parts[f - 1] for f in demand], sent,
                                         cache.parts[-1])
                    assert {key: got[key] for key in keys} == \
                        library[demand[cache.user - 1] - 1].parts, (n, k, demand, cache.user)


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
        for demand in all_demands(cfg):
            demands.setdefault(scheme.pattern(demand, cfg), demand)
        for pattern, demand in demands.items():
            delivery, decoder = scheme.serving(cfg, pattern)
            sent = _run_names(delivery, [keys] * k + [set()], demand)
            assert sorted(sent) == list(range(len(sent)))  # each packet's position on the wire
            for user, cached in kept.items():
                program = decoder(user)
                held = [cached[f - 1] for f in demand]
                _run_names(program, [*held, sent, cached[n], set()], (demand, user))
                assert keys <= set(program), (demand, user)
