from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cachewright.coded_placement import NEW, deliver, decode, place
from cachewright.converse.tightness import scheme_point
from cachewright.errors import ConfigMismatch, DemandNotInD, LengthMismatch, OutOfRange
from cachewright.model import NetworkConfig, pair_order, split_file

from demand_set import all_demands
from reference_field import vec_add, vec_scale, vec_sub


def make_library(cfg, seed=0, length=None):
    rng = random.Random(f"{seed}-{cfg.n}-{cfg.k}")
    length = cfg.subfiles_per_file if length is None else length
    return [split_file(bytes(rng.randrange(256) for _ in range(length)), cfg)
            for _ in range(cfg.n)]


def stage1(cache):
    """The uncoded packets W_n^{ij}, keyed (n, i, j)."""
    return {(n, *key): v for n, part in enumerate(cache.parts[:-1], start=1)
            for key, v in part.items() if key[0] != "diff"}


def stage2_diffs(cache):
    """The differences W_n^{k,succ(k)} - W_n^{kj}, keyed (n, j)."""
    return {(n, key[1]): v for n, part in enumerate(cache.parts[:-1], start=1)
            for key, v in part.items() if key[0] == "diff"}


def packet_count(cache):
    return sum(map(len, cache.parts))


def test_placement_counts_3_4():
    cfg = NetworkConfig(3, 4)
    caches = place(make_library(cfg), cfg)
    for cache in caches:
        assert len(stage1(cache)) == 18
        assert len(stage2_diffs(cache)) == 6
        assert packet_count(cache) == 25


def test_placement_packet_count_formula():
    for n, k in [(2, 2), (2, 3), (3, 3), (2, 5), (4, 6)]:
        cfg = NetworkConfig(n, k)
        caches = place(make_library(cfg), cfg)
        for cache in caches:
            assert packet_count(cache) == n * k * (k - 2) + 1


def test_cache_budget_exact():
    # measured symbols equal M_A * F_sym with no slack
    for n, k in [(3, 4), (2, 4), (4, 5)]:
        cfg = NetworkConfig(n, k)
        lib = make_library(cfg, length=3 * cfg.subfiles_per_file)
        caches = place(lib, cfg)
        f_sym = cfg.subfiles_per_file * lib[0].subfile_len
        memory, _ = scheme_point(n, k)
        for cache in caches:
            assert Fraction(cache.symbol_count) == memory * f_sym


def test_placement_matches_hand_table_3_4():
    # user 1: uncoded pairs avoid user 1; diffs are (1,2)-(1,3) and (1,2)-(1,4);
    # the sum packet adds the (1,2) subfile of all three files.
    cfg = NetworkConfig(3, 4)
    lib = make_library(cfg)
    fld = cfg.field
    caches = place(lib, cfg)

    z1 = caches[0]
    expected_pairs = {(2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3)}
    assert {(i, j) for (_, i, j) in stage1(z1)} == expected_pairs
    for n in (1, 2, 3):
        grid = lib[n - 1]
        assert stage2_diffs(z1)[(n, 3)] == vec_sub(fld, grid.parts[(1, 2)], grid.parts[(1, 3)])
        assert stage2_diffs(z1)[(n, 4)] == vec_sub(fld, grid.parts[(1, 2)], grid.parts[(1, 4)])
    total = vec_add(fld, vec_add(fld, lib[0].parts[(1, 2)], lib[1].parts[(1, 2)]),
                    lib[2].parts[(1, 2)])
    assert z1.parts[-1] == {"sum": total}

    # user 4 wraps around: successor(4) = 1
    z4 = caches[3]
    for n in (1, 2, 3):
        grid = lib[n - 1]
        assert stage2_diffs(z4)[(n, 2)] == vec_sub(fld, grid.parts[(4, 1)], grid.parts[(4, 2)])
        assert stage2_diffs(z4)[(n, 3)] == vec_sub(fld, grid.parts[(4, 1)], grid.parts[(4, 3)])


def test_delivery_matches_hand_set_3_4():
    # demand (A, A, B, C): X^1 = B^{13} + C^{14} - A^{12},
    # X^3 = C^{34} + (1/2) A^{31} + (1/2) A^{32}
    cfg = NetworkConfig(3, 4)
    lib = make_library(cfg)
    fld = cfg.field
    a, b, c = lib
    bc = deliver(lib, (1, 1, 2, 3), cfg)

    x1 = vec_sub(fld, vec_add(fld, b.parts[(1, 3)], c.parts[(1, 4)]), a.parts[(1, 2)])
    assert bc.packets[0] == x1

    half = fld.inv(2)
    x3 = vec_add(fld, c.parts[(3, 4)],
                 vec_add(fld, vec_scale(fld, a.parts[(3, 1)], half),
                         vec_scale(fld, a.parts[(3, 2)], half)))
    assert bc.packets[2] == x3


def test_delivery_all_distinct_has_unit_coefficients():
    cfg = NetworkConfig(4, 4)
    lib = make_library(cfg)
    fld = cfg.field
    bc = deliver(lib, (1, 2, 3, 4), cfg)
    for k in range(1, 5):
        expect = None
        for s in (u for u in range(1, 5) if u != k):
            part = lib[s - 1].parts[(k, s)]
            expect = part if expect is None else vec_add(fld, expect, part)
        assert bc.packets[k - 1] == expect


def test_broadcast_budget():
    for n, k in [(3, 4), (2, 5)]:
        cfg = NetworkConfig(n, k)
        lib = make_library(cfg)
        f_sym = cfg.subfiles_per_file * lib[0].subfile_len
        demand = all_demands(cfg)[0]
        bc = deliver(lib, demand, cfg)
        assert Fraction(bc.symbol_count) == Fraction(f_sym, k - 1)


def test_delivery_refuses_non_surjective():
    cfg = NetworkConfig(3, 4)
    lib = make_library(cfg)
    with pytest.raises(DemandNotInD):
        deliver(lib, (1, 1, 1, 1), cfg)


def test_a_pattern_compiles_once_for_all_its_demands():
    cfg = NetworkConfig(3, 4)
    plain = [random.Random(f"ctx-{n}").randbytes(3000) for n in range(3)]
    lib = [split_file(blob, cfg) for blob in plain]
    caches = place(lib, cfg)
    for demand in all_demands(cfg):
        moved = tuple(f % 3 + 1 for f in demand)  # the same pattern, other files
        pattern = NEW.pattern(demand, cfg)
        assert NEW.pattern(moved, cfg) == pattern
        delivery, decoder = NEW.serving(cfg, pattern)
        again, moved_decoder = NEW.serving(cfg, NEW.pattern(moved, cfg))
        assert delivery == again
        assert decoder(2) == moved_decoder(2)
        sent = deliver(lib, demand, cfg)
        for user in range(1, 5):
            assert decode(caches[user - 1], sent, cfg) == plain[demand[user - 1] - 1]


def test_decode_exhaustive_3_4():
    # brute force over all 36 demands and all 4 users
    cfg = NetworkConfig(3, 4)
    lib = make_library(cfg, length=25)
    plain = [bytes(random.Random(f"9-{n}").randrange(256) for _ in range(25))
             for n in range(3)]
    lib = [split_file(blob, cfg) for blob in plain]
    caches = place(lib, cfg)
    checked = 0
    for demand in all_demands(cfg):
        bc = deliver(lib, demand, cfg)
        for user in range(1, 5):
            assert decode(caches[user - 1], bc, cfg) == plain[demand[user - 1] - 1]
            checked += 1
    assert checked == 36 * 4


def test_decode_no_halving_when_own_file_unshared():
    # user 3's file is requested by nobody else in (1, 1, 2, 3)
    cfg = NetworkConfig(3, 4)
    plain = [bytes([n] * 24) for n in range(3)]
    lib = [split_file(blob, cfg) for blob in plain]
    caches = place(lib, cfg)
    bc = deliver(lib, (1, 1, 2, 3), cfg)
    assert decode(caches[2], bc, cfg) == plain[1]
    assert decode(caches[0], bc, cfg) == plain[0]


def test_smallest_network_2_2():
    cfg = NetworkConfig(2, 2)
    plain = [b"ab", b"cd"]
    lib = [split_file(blob, cfg) for blob in plain]
    caches = place(lib, cfg)
    for cache in caches:
        assert packet_count(cache) == 1  # only the sum packet survives at K=2
    for demand in all_demands(cfg):
        bc = deliver(lib, demand, cfg)
        for user in (1, 2):
            assert decode(caches[user - 1], bc, cfg) == plain[demand[user - 1] - 1]


def test_tight_modulus_exercises_every_divisor():
    # p = 11 > K = 5: divisions by 2 and by request counts up to 4 all valid
    cfg = NetworkConfig(2, 5, p=11)
    rng = random.Random(17)
    symbols = [tuple(rng.randrange(11) for _ in range(cfg.subfiles_per_file))
               for _ in range(2)]
    lib = [split_file(s, cfg) for s in symbols]
    caches = place(lib, cfg)
    for demand in all_demands(cfg):
        bc = deliver(lib, demand, cfg)
        for user in range(1, 6):
            cache = caches[user - 1]
            wanted = demand[user - 1]
            got = decode(cache, bc, cfg)
            for j in range(1, 6):
                if j != user:
                    at = pair_order(5).index((j, user))
                    assert tuple(got[at:at + 1]) == lib[wanted - 1].parts[(j, user)]


def test_symbols_outside_the_field_are_refused_at_split():
    # kept raw, symbol 12 at p = 11 came back reduced in coded pieces and raw in copied
    # ones: user 1 of demand (1, 2, 1) decoded file 1 as [1, 1, 1, 12, 1, 12]
    cfg = NetworkConfig(2, 3, p=11)
    with pytest.raises(ConfigMismatch, match=r"^symbol 12 is not in Z_11, \[0, 11\)$"):
        split_file((12,) * cfg.subfiles_per_file, cfg)
    for symbols, first in [((3, 11, -1, 4), 11), ((3, -1, 11, 4), -1)]:
        with pytest.raises(ConfigMismatch, match=f"^symbol {first} "):
            split_file(symbols, cfg)
    lib = [split_file((1,) * 6, cfg), split_file(tuple(range(6)), cfg)]
    cache = place(lib, cfg, users=(1,))[0]
    assert decode(cache, deliver(lib, (1, 2, 1), cfg), cfg) == bytes([1] * 6)


def test_scheme_point_values():
    assert scheme_point(3, 4) == (Fraction(25, 12), Fraction(1, 3))
    assert scheme_point(4, 4) == (Fraction(11, 4), Fraction(1, 3))
    assert scheme_point(2, 2) == (Fraction(1, 2), Fraction(1, 1))
    for n, k in [(2, 3), (3, 5), (5, 7)]:
        memory, rate = scheme_point(n, k)
        assert memory == Fraction(n * k * (k - 2) + 1, k * (k - 1))
        assert rate == Fraction(1, k - 1)


def test_scheme_point_consistent_with_placement():
    for n, k in [(2, 3), (3, 4), (2, 5)]:
        cfg = NetworkConfig(n, k)
        lib = make_library(cfg)
        caches = place(lib, cfg)
        f_sym = cfg.subfiles_per_file * lib[0].subfile_len
        memory, _ = scheme_point(n, k)
        assert all(Fraction(c.symbol_count, f_sym) == memory for c in caches)


def test_placement_needs_two_users():
    with pytest.raises(OutOfRange, match="placement needs K >= 2"):
        place([], NetworkConfig(1, 1))


def test_a_library_not_split_for_the_config_is_refused():
    cfg = NetworkConfig(2, 3)
    lib = make_library(cfg)
    with pytest.raises(ConfigMismatch, match="library holds 1 files, config says 2"):
        place(lib[:1], cfg)
    with pytest.raises(ConfigMismatch, match="differing subfile lengths"):
        deliver([lib[0], make_library(cfg, length=12)[1]], (1, 2, 2), cfg)
    with pytest.raises(ConfigMismatch, match="not split for this"):
        place(make_library(NetworkConfig(2, 4)), cfg)


def test_a_broadcast_that_does_not_fit_is_refused():
    cfg = NetworkConfig(2, 3)
    lib = make_library(cfg, length=12)
    (cache,) = place(lib, cfg, users=(1,))
    sent = deliver(lib, (1, 2, 2), cfg)
    short = type(sent)(sent.demand, sent.packets[:2])
    with pytest.raises(ConfigMismatch, match="broadcast holds 2 packets, not 3"):
        decode(cache, short, cfg)
    cut = type(sent)(sent.demand, tuple(p[:1] for p in sent.packets))
    with pytest.raises(LengthMismatch, match="subfile lengths differ"):
        decode(cache, cut, cfg)
