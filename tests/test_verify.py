from __future__ import annotations

import os
import random

import pytest

from cachewright import verify
from cachewright.errors import CachewrightError
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
def test_a_sweep_compiles_each_pattern_once(name):
    # D lists a pattern's demands far apart; the sweep takes them together, so a
    # program cache far smaller than the 540 demands x 6 users still always hits
    scheme, cfg = SCHEMES[name], NetworkConfig(3, 6)
    patterns = {scheme.pattern(d, cfg) for d in enumerate_demands(cfg)}
    scheme.delivery.cache_clear()
    scheme.decoding.cache_clear()
    assert run_verification(3, 6, name).ok
    assert scheme.delivery.cache_info().misses == len(patterns)
    assert scheme.decoding.cache_info().misses == len(patterns) * cfg.k
