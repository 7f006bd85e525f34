from __future__ import annotations

import itertools
import math
import random
from functools import cache

import pytest

from cachewright.errors import ConfigMismatch, NotPrime
from cachewright.model import (
    NetworkConfig,
    demand_orbits,
    pair_order,
    relabellings,
    split_file,
    validate_demand,
)


def brute_force_demands(n, k):
    """Independent oracle: filter the full N^K product."""
    return [d for d in itertools.product(range(1, n + 1), repeat=k)
            if len(set(d)) == n]


def _joined(grid, cfg):
    """The subfiles joined in pair_order, cut back to the original length."""
    symbols = [s for pair in pair_order(cfg.k) for s in grid.parts[pair]]
    return bytes(symbols)[: grid.original_length]


def test_config_validation():
    cfg = NetworkConfig(3, 4)
    assert cfg.p == 257
    with pytest.raises(ConfigMismatch):
        NetworkConfig(5, 4)
    with pytest.raises(ConfigMismatch):
        NetworkConfig(0, 4)
    with pytest.raises(ConfigMismatch):
        NetworkConfig(3, 4, p=3)  # p must exceed K


def test_only_none_picks_the_default_modulus():
    assert NetworkConfig(2, 3).p == NetworkConfig(2, 3, None).p == 257
    with pytest.raises(NotPrime, match="^0 is not prime$"):
        NetworkConfig(2, 3, 0)


def test_pair_order_lexicographic():
    assert pair_order(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert len(pair_order(4)) == 12


def test_split_file_24_bytes():
    cfg = NetworkConfig(3, 4)
    grid = split_file(bytes(range(24)), cfg)
    assert len(grid.parts) == 12
    assert grid.subfile_len == 2
    assert all(len(v) == 2 for v in grid.parts.values())
    assert grid.parts[(1, 2)] == (0, 1)
    assert grid.parts[(4, 3)] == (22, 23)


def test_split_file_empty():
    cfg = NetworkConfig(3, 4)
    grid = split_file(b"", cfg)
    assert grid.subfile_len == 1
    assert grid.original_length == 0
    assert all(v == (0,) for v in grid.parts.values())
    assert _joined(grid, cfg) == b""


def test_split_file_pads_to_36():
    # smallest multiple of 12 holding 25 bytes with at least one symbol each
    cfg = NetworkConfig(3, 4)
    grid = split_file(bytes(25), cfg)
    assert grid.subfile_len * 12 == 36
    assert grid.original_length == 25


def test_split_round_trip_random():
    cfg = NetworkConfig(2, 5)
    rng = random.Random(3)
    for _ in range(25):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        assert _joined(split_file(blob, cfg), cfg) == blob


def test_split_symbols_small_modulus():
    cfg = NetworkConfig(2, 4, p=5)
    grid = split_file((1, 2, 3, 4), cfg)
    assert grid.subfile_len == 1
    assert grid.parts[(1, 2)] == (1,)


def _orbit(first, labels):
    """The orbit of a first demand: the first demand under each relabelling, in that order."""
    return [tuple([s[f] for f in first]) for s in labels]


def _flat(cfg):
    """D as model.demand_orbits yields it: each first demand's orbit in order, flattened."""
    labels = relabellings(cfg.n)
    return [d for first in demand_orbits(cfg) for d in _orbit(first, labels)]


def _first_request_order(demand):
    """The demand with its files renumbered in order of first request."""
    order = {}
    return tuple([order.setdefault(f, len(order) + 1) for f in demand])


def test_demand_orbits_match_brute_force():
    for n, k in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 4), (3, 5), (4, 4), (2, 6)]:
        got, want = _flat(NetworkConfig(n, k)), brute_force_demands(n, k)
        assert sorted(got) == want
        assert got[0] == want[0]


def test_demand_orbits_counts():
    assert list(demand_orbits(NetworkConfig(2, 2))) == [(1, 2)]
    assert _flat(NetworkConfig(2, 2)) == [(1, 2), (2, 1)]
    assert len(list(demand_orbits(NetworkConfig(3, 5)))) == 25
    assert len(_flat(NetworkConfig(3, 5))) == 150
    assert len(brute_force_demands(3, 4)) == 36
    assert len(brute_force_demands(2, 4)) == 14
    assert len(_flat(NetworkConfig(3, 4))) == 36
    assert len(_flat(NetworkConfig(2, 4))) == 14
    assert len(_flat(NetworkConfig(2, 8))) == len(brute_force_demands(2, 8))
    assert len(_flat(NetworkConfig(7, 7))) == 5040


@cache
def _stirling(k: int, n: int) -> int:
    """S(k, n), the ways to split k users into n nonempty blocks, by its recurrence."""
    if k == n:
        return 1
    if n == 0 or n > k:
        return 0
    return n * _stirling(k - 1, n) + _stirling(k - 1, n - 1)


@pytest.mark.parametrize("k", range(1, 9))
def test_demand_orbits_are_d_in_groups_of_relabellings(k):
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        firsts = list(demand_orbits(cfg))
        labels = relabellings(n)
        orbits = [_orbit(first, labels) for first in firsts]
        flat = [d for orbit in orbits for d in orbit]
        assert len(set(flat)) == len(flat), (n, k)
        if k <= 7:  # about 1.2 million tuples at k = 7, and 24 million at 8
            brute = brute_force_demands(n, k)
            assert set(flat) == set(brute), (n, k)
        else:  # n! S(k, n) distinct demands of D, so all of D
            assert len(flat) == math.factorial(n) * _stirling(k, n), (n, k)
            assert all(len(d) == k and set(d) == set(range(1, n + 1)) for d in flat), (n, k)
        assert len(firsts) == _stirling(k, n), (n, k)
        assert all(type(first) is tuple and len(first) == k for first in firsts), (n, k)
        assert {len(orbit) for orbit in orbits} == {math.factorial(n)}, (n, k)
        assert flat[0] == min(flat), (n, k)  # the demand whose broadcast verify measures
        # restricted-growth strings in lexicographic order, each orbit in D's order
        assert all(first == _first_request_order(first) for first in firsts), (n, k)
        assert firsts == sorted(firsts), (n, k)
        assert all(orbit == sorted(orbit) for orbit in orbits), (n, k)
        # lane i of verify's relabelled library is the first demand under the i-th of model's
        # relabellings, which must be the i-th demand of its orbit: of the demands of D that
        # request files in the first demand's order of first request, taken in D's order
        assert labels[0] == tuple(range(n + 1)), (n, k)
        if k <= 7:
            groups = {}
            for d in brute:  # the product's order is D's order
                groups.setdefault(_first_request_order(d), []).append(d)
            assert list(groups) == firsts, (n, k)
            for first, orbit in zip(firsts, orbits):
                assert groups[first] == orbit, (n, k, first)


def test_every_demand_surjective():
    cfg = NetworkConfig(3, 5)
    for d in _flat(cfg):
        assert set(d) == {1, 2, 3}


def test_other_users_cover_all_other_files():
    # every file besides user k's own has a requester among the other users
    for n, k in [(2, 3), (3, 4), (4, 5)]:
        cfg = NetworkConfig(n, k)
        for d in _flat(cfg):
            for user in range(1, k + 1):
                others = {d[u - 1] for u in range(1, k + 1) if u != user}
                assert others >= set(range(1, n + 1)) - {d[user - 1]}


@pytest.mark.parametrize("demand", [(1, 2), (1, 2, 1, 2)])
def test_a_demand_of_the_wrong_length_is_refused(demand):
    with pytest.raises(ConfigMismatch, match=rf"^demand length {len(demand)} != K=3$"):
        validate_demand(demand, NetworkConfig(2, 3))
