"""Lower-bound certificates for the many-files regime N >= ceil((K+1)/2).

The demand table is the K cyclic left shifts of (1, ..., N, 1, ..., K-N).
Since file N is requested exactly once per demand, b_l denotes the table
demand in which user l is the one requesting file N. The generated
certificate proves

    K M + K(N-1) R >= KN - 1.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import OutOfCaseRange
from ._chains import (
    Builder,
    ab_sets,
    budget_family,
    chain_step,
    close_with_independence,
    cyclic_table,
    family_term,
    transposition,
)
from .axioms import Monotonicity, PermSymmetry, Submodularity
from .certificate import Certificate, Demand
from .entropy import wset, xvar


def in_case1_range(n: int, k: int) -> bool:
    return 2 <= n <= k and 2 * n >= k + 1


def _guard(n: int, k: int) -> None:
    if not in_case1_range(n, k):
        raise OutOfCaseRange(
            f"({n}, {k}) outside the many-files regime ceil((K+1)/2) <= N <= K, N >= 2")


def case1_demand_table(n: int, k: int) -> tuple[tuple[Demand, ...], dict[int, int]]:
    """The K shifted demands plus the map l -> id of b_l."""
    _guard(n, k)
    return cyclic_table(n, tuple(range(1, n + 1)) + tuple(range(1, k - n + 1)))


def case1_sets(n: int, k: int, i: int):
    """The demand-id sets (A_i, B_i, C_i, J) used by the bound."""
    _guard(n, k)
    a, b = ab_sets(n, k, i)
    c = frozenset(range(max(1, k - n - i + 2), n - i + 1))
    j = frozenset(range(n + 1, k + 1))
    return a, b, c, j


def case1_target(n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(k), Fraction(k * (n - 1)), Fraction(k * n - 1)


def case1_certificate(n: int, k: int) -> Certificate:
    if (n, k) == (1, 1):
        return Certificate(1, 1, 1, ((1,),), (), *case1_target(1, 1))
    _guard(n, k)
    demands, b = case1_demand_table(n, k)
    bld = Builder(n, k, 1, demands, case1_target(n, k))
    w = wset(n - 1)

    sets = {i: case1_sets(n, k, i) for i in range(1, n + 1)}
    j_ids = sets[1][3]
    fam_ab = {i: sets[i][0] | sets[i][1] for i in range(1, n + 1)}
    fam_jc = {i: j_ids | sets[i][2] for i in range(1, k - n + 1)}
    aj = {i: sets[i][0] | j_ids for i in range(1, n + 1)}

    for i in range(1, n + 1):
        budget_family(bld, i, sorted(fam_ab[i]))
    for i in range(1, k - n + 1):
        budget_family(bld, i, sorted(fam_jc[i]))

    # regroup each pair of user-i terms into (A_i u J) and (B_i u C_i)
    for i in range(1, k - n + 1):
        bld.add(Submodularity(family_term(n, i, fam_ab[i]),
                              family_term(n, i, fam_jc[i])))

    # climb the A-chain: strip caches one user at a time against b_2 ... b_N
    bld.add(Monotonicity(family_term(n, 1, aj[1]), w | {xvar(d) for d in aj[1]}))
    for i in range(2, n + 1):
        if i > k - n and fam_ab[i] != aj[i]:
            bld.add(Monotonicity(family_term(n, i, fam_ab[i]),
                                 family_term(n, i, aj[i])))
        chain_step(bld, i, b[i], aj[i])

    # descend the B-chain after moving each Z_i to Z_{N+i} by symmetry
    for i in range(1, k - n + 1):
        b_i, c_i = sets[i][1], sets[i][2]
        if c_i:
            bld.add(Monotonicity(family_term(n, i, b_i | c_i),
                                 family_term(n, i, b_i)))
        bld.add(PermSymmetry(transposition(i, n + i, k), family_term(n, i, b_i)))
    for user in range(k, n, -1):
        chain_step(bld, user, b[user], sets[user - n][1])

    close_with_independence(bld)
    return bld.certificate()
