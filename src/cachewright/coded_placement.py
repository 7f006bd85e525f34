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
a pattern's delivery and each user's decoder share one table that holds each
a_ks / m_ks beside its inverse a_ks * m_ks, so decoding divides by no
coefficient. A cache keeps W_n^{ij} under (n-1, (i, j)), the difference
ending in W_n^{kj} under (n-1, ("diff", j)) and the sum packet under
(N, "sum"); decoding names the 2K-2 pieces W_{d_k}^{ij} that mention user k by
(i, j), and the cache holds the others under the same keys. The compilers
read only N, K and the field's inverse, and leave every reduction to the
field, so over Q the same programs hold exactly. The scheme's closed-form
point (M_A, 1/(K-1)) is converse.tightness.scheme_point.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable

from .errors import DemandNotInD, OutOfRange
from .model import Demand, NetworkConfig, pair_order
from .scheme import Scheme


def _pattern(d: Demand, cfg: NetworkConfig) -> Demand:
    """d with its files renumbered 1, 2, ... in order of first request; d must be in D."""
    seen: dict[int, int] = {}
    pattern = tuple([seen.setdefault(f, len(seen) + 1) for f in d])
    if len(seen) != cfg.n:
        raise DemandNotInD(f"demand {d} does not request every file")
    return pattern


def _caching(cfg: NetworkConfig, k: int) -> dict:
    if cfg.k < 2:
        raise OutOfRange("placement needs K >= 2")
    succ = k % cfg.k + 1
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
    coef[k][s] = a_ks / m_ks, where 1/m_ks comes from cfg.field.inv, and its inverse
    undo[k][s] = a_ks * m_ks."""
    counts = Counter(pattern)
    inv = [0] + [cfg.field.inv(m) for m in range(1, cfg.k)]
    # (a/m, a*m) by m, for a = 1 and a = -1: each pair is made once and shared by the table
    plus = [(inv[m], m) for m in range(cfg.k)]
    minus = [(-c, -m) for c, m in plus]
    users = range(1, cfg.k + 1)
    coef = [[0] * (cfg.k + 1) for _ in range(cfg.k + 1)]
    undo = [[0] * (cfg.k + 1) for _ in range(cfg.k + 1)]
    for k in users:
        for s in users:
            same = pattern[k - 1] == pattern[s - 1]  # then user k is among the requesters of d_s
            coef[k][s], undo[k][s] = (minus if same else plus)[counts[pattern[s - 1]] - same]
    # row k, the packet X_d^k, is built once: the delivery sends it and stage 1 reads its terms
    delivery = {k - 1: tuple([(coef[k][s], (s - 1, (k, s))) for s in users if s != k])
                for k in users}
    # user k halves its stage-2 sum exactly when somebody else shares its file
    half = cfg.field.inv(2)
    halves = [0] + [half if counts[f] > 1 else 1 for f in pattern]
    return delivery, partial(_decoding, cfg, halves, coef, undo, delivery)


def _decoding(cfg: NetworkConfig, halves: list, coef: list, undo: list, delivery: dict,
              k: int) -> dict:
    sent, mixed, own = cfg.k, cfg.k + 1, cfg.k + 2  # the broadcast, the cache's slot N, steps
    succ = k % cfg.k + 1
    others = [u for u in range(1, cfg.k + 1) if u != k]
    steps = {}

    # stage 1: X_d^j minus its known stage-1 terms, row j less its term s = k, read at slot
    # s - 1, is coef[j][k] * W^{jk}
    for j in others:
        back = undo[j][k]
        steps[(j, k)] = tuple([(back, (sent, j - 1))] + [
            (-back * c, read) for c, read in delivery[j - 1] if read[0] != k - 1])

    # stage 2: X_d^k plus the weighted diffs is the sum over files != wanted of
    # W_n^{k,succ}, minus W_wanted^{k,succ} whenever some other user also requests
    # the wanted file; the sum packet minus that is W_wanted^{k,succ}, doubled in
    # that case. Only the stage-1 steps above read the broadcast for W^{jk}.
    half = halves[k]
    steps[(k, succ)] = tuple([(half, (mixed, "sum")), (-half, (sent, k - 1))] + [
        (-half * coef[k][j], (j - 1, ("diff", j))) for j in others if j != succ])
    for j in others:
        if j != succ:
            steps[(k, j)] = ((1, (own, (k, succ))), (-1, (k - 1, ("diff", j))))
    return steps


NEW = Scheme(keys=lambda cfg: tuple(pair_order(cfg.k)), pattern=_pattern,
             caching=_caching, serving=_serving)
place, deliver, decode = NEW.place, NEW.deliver, NEW.decode
