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

Each phase is compiled into a coefficient program for the engine in `scheme`;
a pattern's delivery and each user's decoder share one table of the a_ks / m_ks.
A cache keeps W_n^{ij} under (n-1, (i, j)), the difference ending in W_n^{kj}
under (n-1, ("diff", j)) and the sum packet under (N, "sum"); decoding names
each W_{d_k}^{ij} by (i, j), recovered or copied from the cache. The compilers
read only N, K and the field's inverse, and leave every reduction to the
field, so over Q the same programs hold exactly. The scheme's closed-form
point (M_A, 1/(K-1)) is converse.tightness.scheme_point.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable

from .errors import DemandNotInD, OutOfRange
from .model import (
    Demand,
    NetworkConfig,
    in_demand_set,
    pair_order,
    successor,
)
from .scheme import Scheme


def _pattern(d: Demand, cfg: NetworkConfig) -> Demand:
    """d with its files renumbered 1, 2, ... in order of first request."""
    if not in_demand_set(d, cfg):
        raise DemandNotInD(f"demand {d} does not request every file")
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(f, len(seen) + 1) for f in d])


def _caching(cfg: NetworkConfig, k: int) -> dict:
    if cfg.k < 2:
        raise OutOfRange("placement needs K >= 2")
    succ = successor(k, cfg.k)
    program = {}
    for f in range(cfg.n):
        for pair in pair_order(cfg.k):
            if k not in pair:
                program[(f, pair)] = ((1, (f, pair)),)
        for j in range(1, cfg.k + 1):
            if j not in (k, succ):
                program[(f, ("diff", j))] = ((1, (f, (k, succ))), (-1, (f, (k, j))))
    program[(cfg.n, "sum")] = tuple((1, (f, (k, succ))) for f in range(cfg.n))
    return program


def _serving(cfg: NetworkConfig, pattern: Demand) -> tuple[dict, Callable[[int], dict]]:
    """The delivery, and a decoder that compiles one user's program per call, from one table
    coef[k][s] = a_ks / m_ks, where 1/m_ks comes from cfg.field.inv."""
    counts = Counter(pattern)
    inv = [0] + [cfg.field.inv(m) for m in range(1, cfg.k)]
    users = range(1, cfg.k + 1)
    coef = [[0] * (cfg.k + 1) for _ in range(cfg.k + 1)]
    for k in users:
        for s in users:
            same = pattern[k - 1] == pattern[s - 1]  # then user k is among the requesters of d_s
            coef[k][s] = (-1 if same else 1) * inv[counts[pattern[s - 1]] - same]
    delivery = {k - 1: tuple((coef[k][s], (s - 1, (k, s))) for s in users if s != k)
                for k in users}
    return delivery, partial(_decoding, cfg, pattern, counts, coef)


def _decoding(cfg: NetworkConfig, pattern: Demand, counts: Counter, coef: list, k: int) -> dict:
    sent, mixed, own = cfg.k, cfg.k + 1, cfg.k + 2  # the broadcast, the cache's slot N, steps
    succ = successor(k, cfg.k)
    others = [u for u in range(1, cfg.k + 1) if u != k]
    steps = {}

    # stage 1: X_d^j minus its known stage-1 terms is coef[j][k] * W^{jk}
    for j in others:
        undo = cfg.field.inv(coef[j][k])
        steps[(j, k)] = ((undo, (sent, j - 1)),) + tuple(
            (-undo * coef[j][s], (s - 1, (j, s))) for s in others if s != j)

    # stage 2: X_d^k plus the weighted diffs is the sum over files != wanted of
    # W_n^{k,succ}, minus W_wanted^{k,succ} whenever some other user also requests
    # the wanted file; the sum packet minus that is W_wanted^{k,succ}, doubled in
    # that case. Only the stage-1 steps above read the broadcast for W^{jk}.
    half = cfg.field.inv(2) if counts[pattern[k - 1]] > 1 else 1
    steps[(k, succ)] = ((half, (mixed, "sum")), (-half, (sent, k - 1))) + tuple(
        (-half * coef[k][j], (j - 1, ("diff", j))) for j in others if j != succ)
    for j in others:
        if j != succ:
            steps[(k, j)] = ((1, (own, (k, succ))), (-1, (k - 1, ("diff", j))))
    uncoded = {pair: ((1, (k - 1, pair)),) for pair in pair_order(cfg.k) if k not in pair}
    return steps | uncoded


NEW = Scheme(keys=lambda cfg: tuple(pair_order(cfg.k)), pattern=_pattern,
             caching=_caching, serving=_serving)
place, deliver, decode = NEW.place, NEW.deliver, NEW.decode
