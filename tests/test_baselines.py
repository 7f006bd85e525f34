from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cachewright.baselines import MAN
from cachewright.converse.tightness import rate_chen, rate_yu, yu_point
from cachewright.errors import ConfigMismatch, OutOfRange
from cachewright.model import NetworkConfig

from demand_set import all_demands


def man_library(cfg, seed=0, length=40):
    rng = random.Random(f"man-{seed}-{cfg.n}-{cfg.k}")
    plain = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(cfg.n)]
    return plain, [MAN.split(blob, cfg) for blob in plain]


def test_man_cache_budget():
    cfg = NetworkConfig(3, 4)
    _, lib = man_library(cfg)
    caches = MAN.place(lib, cfg)
    f_sym = cfg.k * lib[0].subfile_len
    for cache in caches:
        assert Fraction(cache.symbol_count) == Fraction(3 * 3, 4) * f_sym


def test_man_decodes_every_demand_3_4():
    cfg = NetworkConfig(3, 4)
    plain, lib = man_library(cfg)
    caches = MAN.place(lib, cfg)
    f_sym = cfg.k * lib[0].subfile_len
    for demand in all_demands(cfg):
        sent = MAN.deliver(lib, demand, cfg)
        (packet,) = sent.packets
        assert Fraction(len(packet)) == Fraction(f_sym, cfg.k)
        for user in range(1, 5):
            got = MAN.decode(caches[user - 1], sent, cfg)
            assert got == plain[demand[user - 1] - 1]


def test_man_handles_demands_outside_d():
    cfg = NetworkConfig(3, 4)
    plain, lib = man_library(cfg)
    caches = MAN.place(lib, cfg)
    sent = MAN.deliver(lib, (2, 2, 2, 2), cfg)
    for user in range(1, 5):
        assert MAN.decode(caches[user - 1], sent, cfg) == plain[1]


def test_man_rejects_single_user():
    cfg = NetworkConfig(1, 1, p=257)
    lib = [MAN.split(b"abc", cfg)]
    with pytest.raises(ConfigMismatch):
        MAN.place(lib, cfg)


def test_rate_yu_values():
    assert yu_point(2, 4, 2) == (Fraction(1), Fraction(2, 3))
    assert yu_point(3, 4, 3) == (Fraction(9, 4), Fraction(1, 4))
    assert rate_yu(3, 4, 4) == 0
    assert rate_yu(5, 7, 7) == 0
    assert rate_yu(3, 4, 0) == 3  # empty caches: send all files
    assert rate_yu(1, 4, 2) == Fraction(1, 2)


def test_rate_yu_man_corner():
    for n, k in [(2, 4), (3, 4), (4, 6)]:
        assert rate_yu(n, k, k - 1) == Fraction(1, k)
        assert yu_point(n, k, k - 1) == (Fraction(n * (k - 1), k), Fraction(1, k))


def test_rate_yu_second_corner():
    # at r = K-2 the corner rate is 2/(K-1) whenever N >= 2
    for n, k in [(2, 4), (3, 4), (2, 5), (4, 7)]:
        assert rate_yu(n, k, k - 2) == Fraction(2, k - 1)
    assert rate_yu(1, 4, 2) == Fraction(2, 4)


def test_rate_chen():
    assert rate_chen(3, 4, Fraction(1, 4)) == Fraction(9, 4)
    assert rate_chen(3, 4, Fraction(0)) == 3
    assert rate_chen(2, 4, Fraction(1, 4)) == Fraction(3, 2)
    with pytest.raises(OutOfRange):
        rate_chen(3, 4, Fraction(1, 2))
