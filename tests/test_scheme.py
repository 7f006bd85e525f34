"""The coefficient-program engine, checked on the programs and on a symbolic library."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from cachewright import baselines, cli, coded_placement, verify
from cachewright.coded_placement import NEW
from cachewright.model import (NetworkConfig, SubfileGrid, demand_orbits, pair_order,
                               relabellings)
from cachewright.scheme import MIXED, OWN, SENT
from cachewright.verify import SCHEMES, run_verification

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


def _man_with_user_1_coefficient(coef):
    """MAN with user 1's term (-1, (2, 3)), file slot 2 under key 3, scaled by coef instead."""
    def serving(cfg, pattern):
        delivery, decoder = baselines.MAN.serving(cfg, pattern)

        def mutated(k: int) -> dict:
            if k != 1:
                return decoder(k)
            return {name: tuple((coef, ref) if (c, ref) == (-1, (2, 3)) else (c, ref)
                                for c, ref in terms) for name, terms in decoder(k).items()}
        return delivery, mutated
    return baselines.MAN._replace(serving=serving)


def test_a_coefficient_one_random_symbol_misses_fails_the_unit_vector_proof(monkeypatch):
    """At (1, 5) and p = 7, verify's seeded symbols for MAN keys 3 and 4 are 0 mod 7, so a
    decoder whose coefficient on key 3 is off still decodes them and the seeded sweep reports
    ok; at 257 the same sweep fails it. The unit-vector library has a 1 under every key, so
    decoding it fails the mutant at p = 7 too. The assertion that the seeded sweep misses the
    mutant pins the gap ROADMAP item 1 closes: the change that makes verify prove decoding on
    unit vectors flips it on purpose."""
    broken, cfg = _man_with_user_1_coefficient(-2), NetworkConfig(1, 5, 7)
    seed = random.Random("cachewright-1-5-0").randbytes(len(broken.keys(cfg)))
    assert [b % 7 for b in seed[2:4]] == [0, 0]
    monkeypatch.setitem(verify.SCHEMES, "man", broken)
    assert run_verification(1, 5, "man", p=7).ok
    assert not run_verification(1, 5, "man").ok
    files = [tuple(blob) for blob in unit_vector_files(broken, cfg)]
    library = [broken.split(symbols, cfg) for symbols in files]
    sent = broken.deliver(library, (1,) * 5, cfg)
    right = [broken.decode(cache, sent, cfg) == bytes(files[0])
             for cache in broken.place(library, cfg)]
    assert right == [False, True, True, True, True]


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
@pytest.mark.parametrize("k", range(2, 8))
def test_every_user_decodes_each_first_demand_of_a_unit_vector_library(name, k):
    """Decoding the unit vectors exactly proves the decoder right for every file content over
    F_257 at each orbit's first demand, as the per-demand test above does for every demand of
    K <= 5. Two contracts carry it to the rest of each orbit: every demand of an orbit runs
    the same programs (test_a_pattern_is_constant_on_each_orbit), and the relabelled demand on
    a library is the first demand on the relabelled library, whose caches are the same caches
    relabelled (test_placement_commutes_with_relabelling_files)."""
    scheme = SCHEMES[name]
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        files = unit_vector_files(scheme, cfg)
        library = [scheme.split(blob, cfg) for blob in files]
        caches = scheme.place(library, cfg)
        for first in demand_orbits(cfg):
            sent = scheme.deliver(library, first, cfg)
            for cache in caches:
                assert scheme.decode(cache, sent, cfg) == files[first[cache.user - 1] - 1], \
                    (n, first, cache.user)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_pattern_is_constant_on_each_orbit(name):
    # verify compiles each orbit once, for the pattern of its first demand
    scheme = SCHEMES[name]
    for k in range(1, 9):
        for n in range(1, k + 1):
            cfg = NetworkConfig(n, k)
            labels = relabellings(n)
            for first in demand_orbits(cfg):
                pattern = scheme.pattern(first, cfg)
                assert all(scheme.pattern(tuple([s[f] for f in first]), cfg) == pattern
                           for s in labels), (n, k, first)


def _where_relabelling_breaks_placement(scheme, cfg):
    """The first (relabelling s, user, slot) where the cache placed on the library relabelled
    by s, whose file f is file s(f), differs from the cache placed on the library itself, read
    at slot s(f)-1 for slot f-1 and as it is at slot N; None where every cache agrees."""
    rng = random.Random(f"relabel-{cfg.n}-{cfg.k}")
    library = [scheme.split(rng.randbytes(8 * len(scheme.keys(cfg))), cfg) for _ in range(cfg.n)]
    caches = scheme.place(library, cfg)
    for s in relabellings(cfg.n):
        moved = scheme.place([library[s[f] - 1] for f in range(1, cfg.n + 1)], cfg)
        for cache, plain in zip(moved, caches, strict=True):
            read = [plain.parts[s[f] - 1] for f in range(1, cfg.n + 1)] + [plain.parts[cfg.n]]
            for slot, (got, want) in enumerate(zip(cache.parts, read, strict=True)):
                if got != want:
                    return s, cache.user, slot
    return None


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_placement_commutes_with_relabelling_files(name):
    # verify places every cache once on a library whose lanes are every relabelling of one
    # library, and reads lane i as the cache placed on that lane's library
    for k in range(2, 6):
        for n in range(1, k + 1):
            cfg = NetworkConfig(n, k)
            assert _where_relabelling_breaks_placement(SCHEMES[name], cfg) is None, (n, k)


def test_a_placement_that_singles_out_a_file_breaks_the_contract():
    # user 1 keeps each difference of file 2 alone as W^{12} - 2 W^{1j}
    def caching(cfg, user):
        program = NEW.caching(cfg, user)
        if user == 1:
            program.update({(f, key): (step[0], (-2, step[1][1]))
                            for (f, key), step in program.items() if f == 1 and key[0] == "diff"})
        return program

    broken = NEW._replace(caching=caching)
    assert _where_relabelling_breaks_placement(broken, NetworkConfig(2, 3)) == ((0, 2, 1), 1, 0)
    assert _where_relabelling_breaks_placement(broken, NetworkConfig(3, 5)) == ((0, 1, 3, 2), 1, 1)


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

    scheme = SCHEMES[name]._replace(serving=serving)
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
def test_a_roundtrip_compiles_its_pattern_in_deliver_and_in_decode(name, tmp_path, monkeypatch):
    # cachewright roundtrip runs Scheme.deliver and Scheme.decode, which each compile the pattern
    compiled, chosen = [], SCHEMES[name]

    def serving(cfg, pattern):
        compiled.append(pattern)
        return chosen.serving(cfg, pattern)

    monkeypatch.setitem(cli.SCHEMES, name, chosen._replace(serving=serving))
    source = tmp_path / "in.bin"
    source.write_bytes(b"hello world, twice over")
    for demand, user in (("1,2,1,3,2", "4"), ("3,3,1,2,1", "1")):
        compiled.clear()
        assert cli.main(["roundtrip", "--n", "3", "--k", "5", "--scheme", name, "--demand",
                         demand, "--user", user, str(source), "--out",
                         str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == source.read_bytes()
        cfg = NetworkConfig(3, 5)
        pattern = chosen.pattern(tuple(map(int, demand.split(","))), cfg)
        assert compiled == [pattern, pattern]


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
                    assert key < k if s == SENT else 0 <= s < k and key in pairs, \
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


def _combine_over_q(step, slots) -> tuple:
    """The sum of each coefficient times the vector its term reads from the slots, exactly."""
    terms = [(c, slots[slot][key]) for c, (slot, key) in step]
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
                sent = scheme.send(cfg, delivery, library, demand)
                for cache in caches:
                    got = scheme.recover(cfg, decoder(cache.user), cache, demand, sent)
                    assert dict(zip(keys, got, strict=True)) == \
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
                # recover hands back each key's decoded piece, else the cached one
                assert keys <= set(program) | held[user - 1], (demand, user)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_no_decoding_step_copies_a_cached_piece(name, k):
    # a decoder names only the pieces it computes; the user's cached pieces are handed back
    # by Scheme.recover, so no step is one term of coefficient 1 read from a cache slot
    scheme = SCHEMES[name]
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        for pattern in {scheme.pattern(demand, cfg) for demand in all_demands(cfg)}:
            _, decoder = scheme.serving(cfg, pattern)
            for user in range(1, k + 1):
                for key, step in decoder(user).items():
                    copies = len(step) == 1 and step[0][0] == 1
                    assert not (copies and step[0][1][0] in (*range(k), MIXED)), \
                        (n, pattern, user, key, step)


def _reads(steps) -> set:
    """The slots the terms of the steps read."""
    return {slot for step in steps for _, (slot, _) in step}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_each_program_reads_only_the_slots_its_runner_lays_out(name):
    # caching reads the N files, delivery the K requested files, and a decoder those K or
    # the three slots Scheme.recover lays out after them, by name; a decoder that read the
    # broadcast at slot K would still decode, since K is where SENT lands, so only this
    # check holds a compiler to the names
    scheme = SCHEMES[name]
    for k in range(2, 7):
        users = range(1, k + 1)
        for n in range(2, k + 1):
            cfg = NetworkConfig(n, k)
            placed = _reads(step for user in users for step in scheme.caching(cfg, user).values())
            assert placed <= set(range(n)), (n, k)
            for pattern in {scheme.pattern(demand, cfg) for demand in all_demands(cfg)}:
                delivery, decoder = scheme.serving(cfg, pattern)
                assert _reads(delivery.values()) <= set(range(k)), (n, pattern)
                for user in users:
                    assert _reads(decoder(user).values()) <= {*range(k), SENT, MIXED, OWN}, \
                        (n, pattern, user)
