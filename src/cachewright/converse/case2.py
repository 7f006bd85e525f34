"""Lower-bound certificates for the few-files regime 2N - 1 <= K, N >= 2.

The demand table is the K cyclic left shifts of

    (1, ..., N, 1, ..., N-1, 1, 1, ..., 1),

which exists only when K >= 2N - 1. The generated certificate proves

    K(K+1)/(2N) M + K(K-1)/2 R >= (K^2 + K - 2)/2.

The same inequality is stated in the source material for N = 1 and, when K
is even, for N = (K+2)/2; in both situations it is contradicted by
achievable memory-rate points (see test_case2_bound_false_for_single_file
and test_case2_bound_false_at_even_boundary in tests/test_certificates.py),
so those parameters are rejected here rather than certified.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import IndexOutOfRange, OutOfCaseRange
from ._chains import (
    Builder,
    ab_sets,
    budget_family,
    chain_step,
    close_with_independence,
    cyclic_table,
    family_term,
    reduction,
    transposition,
)
from .axioms import Monotonicity, PermSymmetry, Submodularity
from .certificate import Certificate, Demand
from .entropy import wset, xvar


def in_case2_range(n: int, k: int) -> bool:
    return n >= 2 and 2 * n - 1 <= k


def _guard(n: int, k: int) -> None:
    if not in_case2_range(n, k):
        raise OutOfCaseRange(
            f"({n}, {k}) outside the few-files regime 2 <= N, 2N-1 <= K; "
            "the bound is false beyond it")


def case2_demand_table(n: int, k: int) -> tuple[tuple[Demand, ...], dict[int, int]]:
    _guard(n, k)
    return cyclic_table(n, tuple(range(1, n + 1)) + tuple(range(1, n))
                        + (1,) * (k - 2 * n + 1))


def case2_sets(n: int, k: int, i: int):
    """The demand-id sets (A_i, B_i, E_i, G_i, L_i) for 1 <= i <= N."""
    _guard(n, k)
    a, b = ab_sets(n, k, i)
    e = frozenset(range(n + 1, 2 * n - i + 1))
    g = frozenset(range(2 * n - i + 1, k - i + 2))
    return a, b, e, g, a | b | e | g


def case2_tail_sets(n: int, k: int, j: int):
    """The demand-id sets (P_j, Q_j, T_j) for 2N <= j <= K."""
    _guard(n, k)
    if not 2 * n <= j <= k:
        raise IndexOutOfRange(f"j={j} outside [2N, K] = [{2 * n}, {k}]")
    p = frozenset(range(k + n - j + 2, k + 2 * n - j + 1))
    q = frozenset(range(k + 2 * n - j + 1, k + 1))
    return p, q, p | q


def case2_target(n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    return (Fraction(k * (k + 1), 2 * n), Fraction(k * (k - 1), 2),
            Fraction(k * k + k - 2, 2))


def case2_certificate(n: int, k: int) -> Certificate:
    if (n, k) == (1, 1):
        return Certificate(1, 1, 2, ((1,),), (), *case2_target(1, 1))
    _guard(n, k)
    demands, b = case2_demand_table(n, k)
    bld = Builder(n, k, 2, demands, case2_target(n, k))
    w = wset(n - 1)

    sets = {i: case2_sets(n, k, i) for i in range(1, n + 1)}

    # absorb each A_i u B_i family and its all-file-1 tail G_i
    for i in range(1, n + 1):
        a_i, b_i, _, g_i, _ = sets[i]
        term = budget_family(bld, i, sorted(a_i | b_i))
        reduction(bld, i, term, a_i | b_i, sorted(g_i))
    for i in range(1, n):
        a_i, b_i, e_i, g_i, _ = sets[i]
        budget_family(bld, i, sorted(b_i | e_i))
        bld.add(Submodularity(family_term(n, i, a_i | b_i | g_i),
                              family_term(n, i, b_i | e_i)))

    # climb the L-chain, then move each Z_i across by user symmetry
    l_sets = {i: sets[i][4] for i in range(1, n + 1)}
    bld.add(Monotonicity(family_term(n, 1, l_sets[1]),
                         w | {xvar(d) for d in l_sets[1]}))
    for i in range(2, n + 1):
        chain_step(bld, i, b[i], l_sets[i])
    for i in range(1, n):
        bld.add(PermSymmetry(transposition(i, n + i, k),
                             family_term(n, i, sets[i][1])))

    # absorb each P_j family and its tail Q_j, then descend the T-chain
    for j in range(2 * n, k + 1):
        p_j, q_j, _ = case2_tail_sets(n, k, j)
        term = budget_family(bld, j, sorted(p_j))
        reduction(bld, j, term, p_j, sorted(q_j))
    for j in range(k, 2 * n - 1, -1):
        chain_step(bld, j, b[j], case2_tail_sets(n, k, j)[2])

    # descend the B-chain down to the empty B_1
    for i in range(n - 1, 0, -1):
        chain_step(bld, n + i, b[n + i], sets[i][1])

    close_with_independence(bld)
    return bld.certificate()
