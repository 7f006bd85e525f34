"""Baseline schemes and closed-form rate calculators.

The Maddah-Ali--Niesen corner at M = N(K-1)/K is implemented end to end:
each file is cut into K pieces indexed by the excluded user, every cache
stores the K-1 pieces that mention its owner, and delivery is the single
packet summing W_{d_k}^{[K] minus k} over k. User k's decoder names each
piece by its key e: piece k from that packet, the others copied from the
cache. Everything else here is a rate formula used when assembling tradeoff
curves.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ConfigMismatch, OutOfRange
from .model import NetworkConfig
from .scheme import Scheme


def _caching(cfg: NetworkConfig, k: int) -> dict:
    """Every piece that mentions user k, of every file, kept under (f-1, e)."""
    if cfg.k < 2:
        raise ConfigMismatch("the K-1 subset split is degenerate for K = 1")
    return {(f, e): ((1, (f, e)),) for f in range(cfg.n) for e in range(1, cfg.k + 1) if e != k}


def _delivery(cfg: NetworkConfig, pattern) -> dict:
    """One packet of F/K symbols; valid for every demand, not only D."""
    return {0: tuple((1, (u - 1, u)) for u in range(1, cfg.k + 1))}


def _decoding(cfg: NetworkConfig, pattern, k: int) -> dict:
    """The packet minus the cached pieces of the others' files; the rest the user caches."""
    missing = ((1, (cfg.k, 0)),) + tuple((-1, (j - 1, j)) for j in range(1, cfg.k + 1) if j != k)
    return {e: missing if e == k else ((1, (k - 1, e)),) for e in range(1, cfg.k + 1)}


# K pieces keyed 1..K, piece e the one user e does not cache; no program reads the demand
MAN = Scheme(keys=lambda cfg: tuple(range(1, cfg.k + 1)), pattern=lambda d, cfg: (),
             caching=_caching, delivery=_delivery, decoding=_decoding)


def rate_yu(n: int, k: int, r: int) -> Fraction:
    """Corner rate R_r = (C(K, r+1) - C(K-N, r+1)) / C(K, r) at M = Nr/K."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    if not 0 <= r <= k:
        raise OutOfRange(f"corner index {r} outside [0, {k}]")
    return Fraction(comb(k, r + 1) - comb(k - n, r + 1), comb(k, r))


def yu_point(n: int, k: int, r: int) -> tuple[Fraction, Fraction]:
    return Fraction(n * r, k), rate_yu(n, k, r)


def rate_chen(n: int, k: int, memory: Fraction) -> Fraction:
    """N - N*M on [0, 1/K] for N <= K, shown optimal there by Chen, Fan and Letaief,
    "Fundamental limits of caching: improved bounds for users with small buffers",
    IET Commun. 2016. Cited, not checked: nothing in this package proves it."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    memory = Fraction(memory)
    if not 0 <= memory <= Fraction(1, k):
        raise OutOfRange(f"M={memory} outside [0, 1/{k}]")
    return n - n * memory
