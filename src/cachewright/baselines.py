"""Baseline schemes and closed-form rate calculators.

The Maddah-Ali--Niesen corner at M = N(K-1)/K is implemented end to end:
each file is cut into K pieces indexed by the excluded user, every cache
stores the K-1 pieces that mention its owner, and delivery is the single
packet summing W_{d_k}^{[K] minus k} over k. Everything else here is a rate
formula used when assembling tradeoff curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import ConfigMismatch, LengthMismatch, OutOfRange
from .field import Symbol, join_bytes, vec_combine
from .model import NetworkConfig, SubfileGrid, split_file, validate_demand, validate_users

Vec = Sequence[Symbol]


@dataclass
class ManCache:
    user: int
    parts: dict[tuple[int, int], Vec]
    file_lengths: tuple[int, ...]
    subfile_len: int

    @property
    def symbol_count(self) -> int:
        return len(self.parts) * self.subfile_len


def man_split(data: bytes, cfg: NetworkConfig) -> SubfileGrid:
    """K pieces keyed 1..K; piece e is the one user e does not cache."""
    return split_file(data, cfg, keys=range(1, cfg.k + 1))


def man_place(library: list[SubfileGrid], cfg: NetworkConfig,
              users: Iterable[int] | None = None) -> list[ManCache]:
    """The caches of the listed users, in the order given; all K by default."""
    if cfg.k < 2:
        raise ConfigMismatch("the K-1 subset split is degenerate for K = 1")
    if len(library) != cfg.n:
        raise ConfigMismatch(f"library holds {len(library)} files, config says {cfg.n}")
    if len({g.subfile_len for g in library}) != 1:
        raise ConfigMismatch("files split with differing subfile lengths")
    users = validate_users(users, cfg)
    lengths = tuple(g.original_length for g in library)
    caches = []
    for k in users:
        parts = {}
        for n, grid in enumerate(library, start=1):
            for e in range(1, cfg.k + 1):
                if e != k:
                    parts[(n, e)] = grid.parts[e]
        caches.append(ManCache(user=k, parts=parts, file_lengths=lengths,
                               subfile_len=library[0].subfile_len))
    return caches


def man_deliver(library: list[SubfileGrid], demand, cfg: NetworkConfig) -> Vec:
    """One packet of F/K symbols; valid for every demand, not only D."""
    d = validate_demand(demand, cfg)
    return vec_combine(cfg.field, ((1, library[d[k - 1] - 1].parts[k])
                                   for k in range(1, cfg.k + 1)))


def man_decode(cache: ManCache, packet: Vec, demand, cfg: NetworkConfig) -> bytes:
    d = validate_demand(demand, cfg)
    if len(packet) != cache.subfile_len:
        raise LengthMismatch("packet length != subfile length")
    k, wanted = cache.user, d[cache.user - 1]
    missing = vec_combine(cfg.field, [(1, packet)] + [
        (-1, cache.parts[(d[j - 1], j)]) for j in range(1, cfg.k + 1) if j != k])
    pieces = [missing if e == k else cache.parts[(wanted, e)] for e in range(1, cfg.k + 1)]
    return join_bytes(pieces)[: cache.file_lengths[wanted - 1]]


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
