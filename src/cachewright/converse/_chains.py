"""Shared machinery for unrolling chain proofs into axiom lists.

The generators in case1/case2 assemble certificates from three reusable
moves. A *budget family* trades one cache bound and a batch of rate bounds
for a single joint term H(W_{[N-1]}, Z_l, X_F), inserting the first N-1
files one decodability step at a time. A *chain step* consumes a head term
H(W_{[N-1]}, X_{S u b}) together with H(W_{[N-1]}, Z_u, X_S) and leaves the
smaller head H(W_{[N-1]}, X_S) plus the constant N, which works because
user u decodes file N from the broadcast b. A *reduction* absorbs a batch
of broadcasts that all serve file 1 to user l, spending only |T|/N extra
cache budget thanks to the file-relabelling symmetry.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import IndexOutOfRange
from .axioms import (
    CacheBound,
    Decodability,
    FileIndependence,
    FileSymmetry,
    RateBound,
    Submodularity,
    Totality,
)
from .certificate import Certificate, Demand
from .entropy import VarSet, wset, wvar, xvar, zvar

ONE = Fraction(1)


class Builder:
    def __init__(self, n: int, k: int, case: int, demands, target):
        self.n = n
        self.k = k
        self.case = case
        self.demands = tuple(tuple(d) for d in demands)
        self.target = target
        self.axioms = []

    def add(self, axiom, mult: Fraction = ONE) -> None:
        self.axioms.append((axiom, mult))

    def certificate(self) -> Certificate:
        return Certificate(self.n, self.k, self.case, self.demands, tuple(self.axioms),
                           *self.target)

    def requested(self, demand_id: int, user: int) -> int:
        return self.demands[demand_id - 1][user - 1]


def family_term(n: int, user: int, ids) -> VarSet:
    return wset(n - 1) | {zvar(user)} | frozenset(xvar(i) for i in ids)


def budget_family(bld: Builder, user: int, ids: list[int]) -> VarSet:
    """M + |F| R >= H(W_{[N-1]}, Z_user, X_F) for a family F of demands
    in which user sees every one of the files 1..N-1 requested."""
    bld.add(CacheBound(user))
    cur: VarSet = frozenset({zvar(user)})
    for d in ids:
        bld.add(RateBound(d))
        bld.add(Submodularity(cur, frozenset({xvar(d)})))
        cur = cur | {xvar(d)}
    for f in range(1, bld.n):
        source = next(d for d in ids if bld.requested(d, user) == f)
        bld.add(Decodability(user, source, cur), -ONE)
        cur = cur | wset(f)
    assert cur == family_term(bld.n, user, ids)
    return cur


def chain_step(bld: Builder, user: int, b_id: int, small: frozenset[int]) -> None:
    """Consume heads H(W, X_{small u b}) and H(W, Z_user, X_small);
    produce H(W, X_small) and the constant N."""
    assert b_id not in small
    assert bld.requested(b_id, user) == bld.n
    w = wset(bld.n - 1)
    big_x = frozenset(xvar(i) for i in small | {b_id})
    small_x = frozenset(xvar(i) for i in small)
    bld.add(Submodularity(w | big_x, w | {zvar(user)} | small_x))
    bld.add(Decodability(user, b_id, w | {zvar(user)} | big_x), -ONE)
    bld.add(Totality(wset(bld.n) | {zvar(user)} | big_x))


def reduction(bld: Builder, user: int, s_term: VarSet, s_ids: frozenset[int],
              t_ids: list[int]) -> VarSet:
    """Absorb broadcasts T (all serving file 1 to `user`) into the S term.

    Spends |T|/N cache budget and one rate bound per member, paying back the
    constant |T|; valid only for N >= 2 because the regrouping step needs
    file 1 inside W_{[N-1]}.
    """
    t = len(t_ids)
    if t == 0:
        return s_term
    assert bld.n >= 2
    assert not (set(t_ids) & s_ids)
    n, z = bld.n, zvar(user)
    share = Fraction(t, n)
    bld.add(CacheBound(user), share)
    for d in t_ids:
        assert bld.requested(d, user) == 1
        bld.add(RateBound(d))
        bld.add(Submodularity(frozenset({z}), frozenset({xvar(d)})))
        bld.add(Decodability(user, d, frozenset({z, xvar(d)})), -ONE)
    cur = frozenset({wvar(1), z, xvar(t_ids[0])})
    for d in t_ids[1:]:
        nxt = frozenset({wvar(1), z, xvar(d)})
        bld.add(Submodularity(cur, nxt))
        cur = cur | nxt
    bld.add(Submodularity(s_term, cur))
    for f in range(2, n + 1):
        bld.add(FileSymmetry(1, f, user), share)
    grown = frozenset({wvar(1), z})
    for f in range(2, n + 1):
        single = frozenset({wvar(f), z})
        bld.add(Submodularity(grown, single), share)
        grown = grown | single
    bld.add(Totality(wset(n) | {z}), share)
    return s_term | frozenset(xvar(d) for d in t_ids)


def cyclic_table(n: int, base: Demand) -> tuple[tuple[Demand, ...], dict[int, int]]:
    """The K left shifts of base, and the map l -> b_l, the id of the shift
    in which user l requests file n; base holds its only n at position n."""
    k = len(base)
    demands = tuple(base[shift:] + base[:shift] for shift in range(k))
    return demands, {l: (n - l) % k + 1 for l in range(1, k + 1)}


def ab_sets(n: int, k: int, i: int) -> tuple[frozenset[int], frozenset[int]]:
    """A_i = {1, ..., N-i} and B_i = {K-i+2, ..., K}, both families' sets for 1 <= i <= N."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"i={i} outside [1, {n}]")
    return frozenset(range(1, n - i + 1)), frozenset(range(k - i + 2, k + 1))


def transposition(a: int, b: int, k: int) -> tuple[int, ...]:
    perm = list(range(1, k + 1))
    perm[a - 1], perm[b - 1] = b, a
    return tuple(perm)


def close_with_independence(bld: Builder) -> None:
    bld.add(FileIndependence(wset(bld.n - 1)))
