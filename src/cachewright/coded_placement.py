"""Coded-placement scheme achieving rate 1/(K-1) on the demand set D.

Placement runs in two stages. Stage 1 copies into user k's cache every
subfile W_n^{ij} whose index pair avoids k. Stage 2 adds, per file, the
differences W_n^{k,succ(k)} - W_n^{kj} for the remaining pair partners j,
plus a single packet summing W_n^{k,succ(k)} over all files. The cache then
holds NK(K-2)+1 packets, i.e. exactly M_A file units.

Delivery broadcasts one packet per user,

    X_d^k = sum over s != k of (a_ks / m_ks) * W_{d_s}^{ks},

where m_ks counts the users besides k requesting the same file as s, and
a_ks is -1 when user s wants user k's file and +1 otherwise. Decoding first
strips known stage-1 content from each X_d^j to expose W_{d_k}^{jk}, then
combines X_d^k with the cached differences and the sum packet to isolate
W_{d_k}^{k,succ(k)} (halving when somebody else shares user k's file) and
peels off the remaining W_{d_k}^{kj}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .errors import ConfigMismatch, DemandNotInD, LengthMismatch, OutOfRange
from .field import Symbol, join_bytes, vec_combine
from .model import (
    Demand,
    DemandContext,
    NetworkConfig,
    SubfileGrid,
    demand_context,
    in_demand_set,
    successor,
    validate_demand,
    validate_users,
)

Vec = Sequence[Symbol]


@dataclass
class CacheContents:
    """Everything placed in one user's cache, keyed by provenance.

    stage1 maps (file, i, j) to the uncoded subfile W_n^{ij}; stage2_diffs
    maps (file, j) to W_n^{k,succ(k)} - W_n^{kj}; stage2_sum is the single
    packet summing W_n^{k,succ(k)} over files.
    """

    user: int
    stage1: dict[tuple[int, int, int], Vec]
    stage2_diffs: dict[tuple[int, int], Vec]
    stage2_sum: Vec
    file_lengths: tuple[int, ...]
    subfile_len: int

    @property
    def packet_count(self) -> int:
        return len(self.stage1) + len(self.stage2_diffs) + 1

    @property
    def symbol_count(self) -> int:
        return self.packet_count * self.subfile_len


@dataclass
class Broadcast:
    """The K delivery packets X_d^1 ... X_d^K for one demand."""

    demand: Demand
    packets: tuple[Vec, ...]

    @property
    def symbol_count(self) -> int:
        return sum(len(p) for p in self.packets)


def _check_library(library: list[SubfileGrid], cfg: NetworkConfig) -> int:
    if len(library) != cfg.n:
        raise ConfigMismatch(f"library holds {len(library)} files, config says {cfg.n}")
    lengths = {g.subfile_len for g in library}
    if len(lengths) != 1:
        raise ConfigMismatch("files split with differing subfile lengths")
    for g in library:
        if len(g.parts) != cfg.subfiles_per_file:
            raise ConfigMismatch("file not split for this (N, K)")
    return lengths.pop()


def place(library: list[SubfileGrid], cfg: NetworkConfig,
          users: Iterable[int] | None = None) -> list[CacheContents]:
    """The caches of the listed users, in the order given; all K by default."""
    if cfg.k < 2:
        raise OutOfRange("placement needs K >= 2")
    sub_len = _check_library(library, cfg)
    users = validate_users(users, cfg)
    fld = cfg.field
    lengths = tuple(g.original_length for g in library)
    caches = []
    for k in users:
        others = [u for u in range(1, cfg.k + 1) if u != k]
        succ = successor(k, cfg.k)
        stage1 = {}
        for n, grid in enumerate(library, start=1):
            for i in others:
                for j in others:
                    if i != j:
                        stage1[(n, i, j)] = grid.parts[(i, j)]
        diffs = {}
        for n, grid in enumerate(library, start=1):
            head = grid.parts[(k, succ)]
            for j in others:
                if j != succ:
                    diffs[(n, j)] = vec_combine(fld, ((1, head), (-1, grid.parts[(k, j)])))
        total = vec_combine(fld, ((1, grid.parts[(k, succ)]) for grid in library))
        caches.append(CacheContents(user=k, stage1=stage1, stage2_diffs=diffs,
                                    stage2_sum=total, file_lengths=lengths,
                                    subfile_len=sub_len))
    return caches


@cache
def _inverse_table(cfg: NetworkConfig) -> dict[int, Symbol]:
    """Inverses of every divisor the scheme can produce: 1..K-1; shared, do not mutate."""
    fld = cfg.field
    return {m: fld.inv(m) for m in range(1, cfg.k)}


def _coefficient(ctx: DemandContext, inv: dict[int, Symbol], p: int,
                 k: int, s: int) -> Symbol:
    """(a_ks / m_ks) reduced into the field."""
    sign = -1 if ctx.demand[k - 1] == ctx.demand[s - 1] else 1
    return sign * inv[ctx.n_ks(k, s)] % p


def _context_for(d: Demand, cfg: NetworkConfig, ctx: DemandContext | None) -> DemandContext:
    """ctx, or a new one when None; a context built for another demand is refused."""
    if ctx is None:
        return demand_context(d, cfg)
    if ctx.demand != d:
        raise ConfigMismatch(f"context built for demand {ctx.demand} cannot serve demand {d}")
    return ctx


def deliver(library: list[SubfileGrid], demand, cfg: NetworkConfig,
            ctx: DemandContext | None = None) -> Broadcast:
    d = validate_demand(demand, cfg)
    if not in_demand_set(d, cfg):
        raise DemandNotInD(f"demand {d} does not request every file")
    _check_library(library, cfg)
    ctx = _context_for(d, cfg, ctx)
    inv = _inverse_table(cfg)
    packets = tuple(
        vec_combine(cfg.field, [(_coefficient(ctx, inv, cfg.p, k, s),
                                 library[d[s - 1] - 1].parts[(k, s)]) for s in ctx.others(k)])
        for k in range(1, cfg.k + 1))
    return Broadcast(demand=d, packets=packets)


def recover_cross_subfiles(stage1: dict[tuple[int, int, int], Vec],
                           broadcast: Broadcast, user: int, cfg: NetworkConfig,
                           ctx: DemandContext | None = None) -> dict[int, Vec]:
    """Stage-1 decoding: W_{d_k}^{jk} for every j != k.

    Uses only the broadcast packets X_d^j and uncoded stage-1 cache content,
    never the coded stage-2 packets.
    """
    ctx = _context_for(broadcast.demand, cfg, ctx)
    inv = _inverse_table(cfg)
    d = ctx.demand
    out = {}
    for j in ctx.others(user):
        # X_d^j minus its known terms is (a_jk / m_jk) W^{jk}; a is +-1, so
        # undoing the coefficient is multiplying by a_jk * m_jk
        undo = (-1 if d[j - 1] == d[user - 1] else 1) * ctx.n_ks(j, user)
        out[j] = vec_combine(cfg.field, [(undo, broadcast.packets[j - 1])] + [
            (-undo * _coefficient(ctx, inv, cfg.p, j, s), stage1[(d[s - 1], j, s)])
            for s in ctx.others(j) if s != user])
    return out


def _recover_own_subfiles(cache: CacheContents, broadcast: Broadcast,
                          cfg: NetworkConfig, ctx: DemandContext) -> dict[int, Vec]:
    """Stage-2 decoding: W_{d_k}^{kj} for every j != k."""
    fld = cfg.field
    inv = _inverse_table(cfg)
    d, k = ctx.demand, cache.user
    succ = successor(k, cfg.k)
    wanted = d[k - 1]

    # X_d^k plus the weighted diffs is the sum over files != wanted of W_n^{k,succ},
    # minus W_wanted^{k,succ} whenever some other user also requests the wanted
    # file; the sum packet minus that is W_wanted^{k,succ}, doubled in that case.
    half = fld.inv(2) if ctx.own_file_count(k) != 0 else 1
    head = vec_combine(fld, [(half, cache.stage2_sum), (-half, broadcast.packets[k - 1])] + [
        (-half * _coefficient(ctx, inv, cfg.p, k, j), cache.stage2_diffs[(d[j - 1], j)])
        for j in ctx.others(k) if j != succ])
    out = {succ: head}
    for j in ctx.others(k):
        if j != succ:
            out[j] = vec_combine(fld, ((1, head), (-1, cache.stage2_diffs[(wanted, j)])))
    return out


def decode(cache: CacheContents, broadcast: Broadcast, cfg: NetworkConfig,
           ctx: DemandContext | None = None) -> bytes:
    d = validate_demand(broadcast.demand, cfg)
    if not in_demand_set(d, cfg):
        raise DemandNotInD(f"demand {d} does not request every file")
    if len(broadcast.packets) != cfg.k:
        raise ConfigMismatch("broadcast packet count != K")
    for p in broadcast.packets:
        if len(p) != cache.subfile_len:
            raise LengthMismatch("broadcast and cache subfile lengths differ")

    ctx = _context_for(d, cfg, ctx)
    k, wanted = cache.user, d[cache.user - 1]
    cross = recover_cross_subfiles(cache.stage1, broadcast, k, cfg, ctx)
    own = _recover_own_subfiles(cache, broadcast, cfg, ctx)

    users = range(1, cfg.k + 1)  # the pieces in pair_order, without building its list
    pieces = [own[j] if i == k else cross[i] if j == k else cache.stage1[(wanted, i, j)]
              for i in users for j in users if i != j]
    return join_bytes(pieces)[: cache.file_lengths[wanted - 1]]


def scheme_point(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The scheme's memory-rate pair (M_A, 1/(K-1)) as exact rationals."""
    if not 1 <= n <= k:
        raise OutOfRange(f"need 1 <= N <= K, got ({n}, {k})")
    if k < 2:
        raise OutOfRange("rate 1/(K-1) needs K >= 2")
    memory = Fraction(n, k) * ((k - 2) + Fraction((k - 2) * n + 1, n * (k - 1)))
    return memory, Fraction(1, k - 1)
