"""Network configuration, file splitting, and demand enumeration.

FieldCtx.split cuts a file into K(K-1) subfiles, keyed by ordered user pairs (i, j),
i != j, in the form FieldCtx.pack decides. Demands give each of the K users one file;
D holds those requesting every file, which a scheme's pattern tests. demand_orbits
yields each of D's orbits under relabelling the files as its first demand;
relabellings expands it into the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .errors import ConfigMismatch, IndexOutOfRange, OutOfRange
from .field import FieldCtx, Symbol, default_modulus, make_field

Demand = tuple[int, ...]


@dataclass(frozen=True)
class NetworkConfig:
    """An (N, K) cache network served over the field Z_p; p None for default_modulus(K)."""

    n: int
    k: int
    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            object.__setattr__(self, "p", default_modulus(self.k))
        if not 1 <= self.n <= self.k:
            raise ConfigMismatch(f"need 1 <= N <= K, got N={self.n}, K={self.k}")
        object.__setattr__(self, "_field", make_field(self.p))
        if self.p <= self.k:
            raise ConfigMismatch(f"modulus {self.p} must exceed K={self.k}")

    @property
    def field(self) -> FieldCtx:
        return self._field

    @property
    def subfiles_per_file(self) -> int:
        return self.k * (self.k - 1)


def pair_order(k: int) -> list[tuple[int, int]]:
    """Canonical lexicographic order of the ordered pairs (i, j), i != j."""
    return list(permutations(range(1, k + 1), 2))


@dataclass
class SubfileGrid:
    """One file cut into equal-length subfiles, keyed by user pair (i, j), or by user for MAN."""

    parts: dict[object, Sequence[Symbol]]
    subfile_len: int
    original_length: int


def split_file(data: bytes | Sequence[Symbol], cfg: NetworkConfig,
               keys: Sequence[object] | None = None) -> SubfileGrid:
    """The file's bytes or symbols as one subfile of cfg.field.split per key; keys defaults
    to pair_order(K), which is empty, and refused, when K < 2."""
    keys = pair_order(cfg.k) if keys is None else keys
    if not keys:
        raise OutOfRange(f"K = {cfg.k} leaves no subfiles to split into; need K >= 2")
    parts, subfile_len = cfg.field.split(data, len(keys))
    return SubfileGrid(dict(zip(keys, parts)), subfile_len, len(data))


def relabellings(n: int) -> list[tuple[int, ...]]:
    """Every relabelling s of the files 1..n as (0, s(1), ..., s(n)), so label[f] is s(f), in
    the lexicographic order of permutations, which starts with the identity. The orbit of a
    first demand d of demand_orbits is [s[f] for f in d] for each s of these, in D's order."""
    return [(0, *p) for p in permutations(range(1, n + 1))]


def demand_orbits(cfg: NetworkConfig) -> Iterator[Demand]:
    """Yield D's orbits under relabelling the files, each as its first demand.

    A first demand is a restricted-growth string with exactly N blocks (files numbered in
    order of first request), the strings in lexicographic order, so the first is D's first
    demand. Its orbit is the string under each of relabellings(N), in that order, which is
    also their order in D. The cost is proportional to the S(K, N) orbits, not to |D|.
    """
    n, k = cfg.n, cfg.k
    string = [0] * k

    def walk(pos: int, blocks: int) -> Iterator[Demand]:
        if n - blocks > k - pos:  # the files still missing cannot all be requested
            return
        if pos == k:
            yield tuple(string)
            return
        for f in range(1, min(blocks + 1, n) + 1):
            string[pos] = f
            yield from walk(pos + 1, max(blocks, f))

    yield from walk(0, 0)


def validate_demand(demand: Sequence[int], cfg: NetworkConfig) -> Demand:
    if len(demand) != cfg.k:
        raise ConfigMismatch(f"demand length {len(demand)} != K={cfg.k}")
    for f in demand:
        if not 1 <= f <= cfg.n:
            raise ConfigMismatch(f"file index {f} outside [1, {cfg.n}]")
    return tuple(demand)


def validate_users(users: Iterable[int] | None, cfg: NetworkConfig) -> tuple[int, ...]:
    """The users a placement builds caches for, in the order given; all K for None."""
    if users is None:
        return tuple(range(1, cfg.k + 1))
    users = tuple(users)
    for k in users:
        if not 1 <= k <= cfg.k:
            raise IndexOutOfRange(f"user {k} outside [1, {cfg.k}]")
    return users
