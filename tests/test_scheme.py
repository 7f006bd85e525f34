"""The coefficient-program engine, checked on the programs and on a symbolic library."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from cachewright.coded_placement import NEW
from cachewright.model import NetworkConfig, enumerate_demands, pair_order
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


def patterns(k):
    for n in range(1, k + 1):
        cfg = NetworkConfig(n, k)
        for demand in enumerate_demands(cfg):
            if NEW.pattern(demand, cfg) == demand:
                yield cfg, demand


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stage1_recovery_reads_only_broadcast_and_uncoded_cache(k):
    # slot K holds X_d^1..X_d^K at 0..K-1, the sum packet at K, then the steps
    pairs = set(pair_order(k))
    for cfg, pattern in patterns(k):
        for user in range(1, k + 1):
            steps = NEW.decoding(cfg, pattern, user)
            pieces = steps[len(steps) - len(pairs):]
            for (i, j), piece in zip(pair_order(k), pieces):
                if j != user:
                    continue
                ((c, (slot, at)),) = piece  # a copy of the step that recovers W^{i,user}
                assert (c, slot) == (1, k) and at > k
                for _, (s, key) in steps[at - k - 1]:
                    assert key < k if s == k else key in pairs, (pattern, user, i, (s, key))


def test_a_copy_step_passes_the_vector_through():
    cfg = NetworkConfig(2, 3)
    library = [NEW.split(bytes(range(6 * n, 6 * n + 6)), cfg) for n in (1, 2)]
    (cache,) = NEW.place(library, cfg, users=(1,))
    assert cache.parts[1][(2, 3)] is library[1].parts[(2, 3)]
    assert cache.parts[-1] == {"sum": (6 + 12,)}  # W_1^{12} + W_2^{12}, one vec_combine


def _programs(scheme, cfg, patterns) -> list:
    """Every step compiled at cfg: each user's placement, then per pattern the delivery
    and each user's decoding, from the compilers themselves rather than their caches."""
    users = range(1, cfg.k + 1)
    steps = [step for user in users for step in scheme.caching(cfg, user).values()]
    for pattern in patterns:
        steps += scheme.delivery.__wrapped__(cfg, pattern)
        for user in users:
            steps += scheme.decoding.__wrapped__(cfg, pattern, user)
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
