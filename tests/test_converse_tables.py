from __future__ import annotations

import pytest

from cachewright.converse import case1_certificate, case2_certificate
from cachewright.converse.case1 import case1_demand_table, case1_sets, in_case1_range
from cachewright.converse.case2 import (
    case2_demand_table,
    case2_sets,
    case2_tail_sets,
    in_case2_range,
)
from cachewright.errors import IndexOutOfRange, OutOfCaseRange
from cachewright.model import NetworkConfig, enumerate_demands


def case1_pairs(k_max):
    return [(n, k) for k in range(2, k_max + 1) for n in range(2, k + 1)
            if in_case1_range(n, k)]


def case2_pairs(k_max):
    return [(n, k) for k in range(2, k_max + 1) for n in range(2, k + 1)
            if in_case2_range(n, k)]


def test_case1_table_3_4():
    demands, b = case1_demand_table(3, 4)
    assert demands[0] == (1, 2, 3, 1)
    assert demands[1] == (2, 3, 1, 1)
    assert demands[2] == (3, 1, 1, 2)
    assert demands[3] == (1, 1, 2, 3)
    assert b == {1: 3, 2: 2, 3: 1, 4: 4}


def test_case1_table_4_4_pure_shift():
    demands, _ = case1_demand_table(4, 4)
    assert demands[0] == (1, 2, 3, 4)
    assert demands[1] == (2, 3, 4, 1)


def test_case1_b_requests_last_file():
    for n, k in case1_pairs(10):
        demands, b = case1_demand_table(n, k)
        for l in range(1, k + 1):
            assert demands[b[l] - 1][l - 1] == n, (n, k, l)


def test_case1_demands_in_d():
    for n, k in case1_pairs(7):
        cfg = NetworkConfig(n, k)
        all_d = set(enumerate_demands(cfg))
        demands, _ = case1_demand_table(n, k)
        assert set(demands) <= all_d
        assert len(set(demands)) == k


def test_case1_sets_3_4():
    a, b, c, j = case1_sets(3, 4, 1)
    assert a == {1, 2} and b == frozenset() and c == {2} and j == {4}
    a3, b3, c3, _ = case1_sets(3, 4, 3)
    assert a3 == frozenset() and c3 == frozenset() and b3 == {3, 4}


def test_case1_set_identities_exhaustive():
    # cardinalities plus the chain identities, all (N, K) in range, K <= 10
    for n, k in case1_pairs(10):
        demands, b = case1_demand_table(n, k)
        sets = {i: case1_sets(n, k, i) for i in range(1, n + 1)}
        j = sets[1][3]
        assert len(j) == k - n
        for i in range(1, n + 1):
            a_i, b_i, c_i, _ = sets[i]
            assert len(a_i) == n - i
            assert len(b_i) == i - 1
            assert a_i & c_i == c_i
            if 1 <= i <= k - n:
                assert len(c_i) == 2 * n - k - 1
                assert b_i & j == b_i
            else:
                assert b_i & j == j
        assert sets[n][0] == frozenset()     # A_N empty
        assert sets[1][1] == frozenset()     # B_1 empty
        assert sets[n][2] == frozenset()     # C_N empty
        for i in range(1, n):
            assert sets[i + 1][0] | {b[i + 1]} == sets[i][0]
        for i in range(1, k - n + 1):
            assert sets[i][1] | {b[n + i]} == sets[i + 1][1] if i + 1 <= n else True
        if n < k:
            assert sets[k - n][1] | {b[k]} == j


def test_case1_files_seen_by_user_i():
    # across A_i u B_i and J u C_i, user i requests every one of files 1..N-1
    for n, k in case1_pairs(8):
        demands, _ = case1_demand_table(n, k)
        for i in range(1, n + 1):
            a_i, b_i, c_i, j = case1_sets(n, k, i)
            seen = {demands[d - 1][i - 1] for d in a_i | b_i}
            assert seen >= set(range(1, n))
            if i <= k - n:
                seen2 = {demands[d - 1][i - 1] for d in j | c_i}
                assert seen2 >= set(range(1, n))


def test_case1_range_guard():
    with pytest.raises(OutOfCaseRange):
        case1_demand_table(2, 4)
    with pytest.raises(OutOfCaseRange):
        case1_demand_table(1, 3)
    with pytest.raises(IndexOutOfRange):
        case1_sets(3, 4, 4)


def test_case2_table_2_4():
    demands, b = case2_demand_table(2, 4)
    assert demands[0] == (1, 2, 1, 1)
    assert demands[1] == (2, 1, 1, 1)
    assert demands[2] == (1, 1, 1, 2)
    assert demands[3] == (1, 1, 2, 1)
    assert b == {1: 2, 2: 1, 3: 4, 4: 3}


def test_case2_b_requests_last_file():
    for n, k in case2_pairs(10):
        demands, b = case2_demand_table(n, k)
        for l in range(1, k + 1):
            assert demands[b[l] - 1][l - 1] == n


def test_case2_demands_in_d():
    cfg = NetworkConfig(2, 4)
    all_d = set(enumerate_demands(cfg))
    demands, _ = case2_demand_table(2, 4)
    assert len(all_d) == 14
    assert set(demands) <= all_d


def test_case2_set_identities_exhaustive():
    for n, k in case2_pairs(10):
        demands, b = case2_demand_table(n, k)
        sets = {i: case2_sets(n, k, i) for i in range(1, n + 1)}
        tails = {j: case2_tail_sets(n, k, j) for j in range(2 * n, k + 1)}
        for i in range(1, n + 1):
            a_i, b_i, e_i, g_i, l_i = sets[i]
            assert len(a_i) == n - i
            assert len(b_i) == i - 1
            assert len(e_i) == n - i
            assert len(g_i) == k - 2 * n + 1
            assert l_i == a_i | b_i | e_i | g_i
            assert len(l_i) == k - i
        assert sets[n][0] == sets[1][1] == sets[n][2] == frozenset()
        for i in range(1, n):
            assert sets[i + 1][4] | {b[i + 1]} == sets[i][4]   # L-chain
            assert sets[i][1] | {b[n + i]} == sets[i + 1][1]   # B-chain
        for j in range(2 * n, k + 1):
            p_j, q_j, t_j = tails[j]
            assert len(p_j) == n - 1
            assert len(q_j) == j - 2 * n
            assert t_j == p_j | q_j
        if 2 * n <= k:
            assert tails[2 * n][1] == frozenset()              # Q_{2N} empty
            for j in range(2 * n, k):
                assert tails[j][2] | {b[j]} == tails[j + 1][2]  # T-chain
            assert tails[k][2] | {b[k]} == sets[n][4]          # joins L_N
            assert sets[n - 1][1] | {b[2 * n - 1]} == tails[2 * n][2]
        else:
            # at K = 2N-1 the tail range is empty and the B-chain meets L_N
            assert sets[n - 1][1] | {b[2 * n - 1]} == sets[n][4]


def test_case2_tail_files():
    # user j sees every file 1..N-1 across P_j, and only file 1 across Q_j
    for n, k in case2_pairs(8):
        demands, _ = case2_demand_table(n, k)
        for j in range(2 * n, k + 1):
            p_j, q_j, _ = case2_tail_sets(n, k, j)
            assert {demands[d - 1][j - 1] for d in p_j} == set(range(1, n))
            assert all(demands[d - 1][j - 1] == 1 for d in q_j)


def test_case2_g_requests_file_1():
    for n, k in case2_pairs(8):
        demands, _ = case2_demand_table(n, k)
        for i in range(1, n + 1):
            g_i = case2_sets(n, k, i)[3]
            assert all(demands[d - 1][i - 1] == 1 for d in g_i)


def test_case2_range_guard():
    with pytest.raises(OutOfCaseRange):
        case2_demand_table(3, 4)   # needs K >= 2N-1
    with pytest.raises(OutOfCaseRange):
        case2_demand_table(1, 4)   # the bound is false for one file
    with pytest.raises(IndexOutOfRange):
        case2_tail_sets(2, 5, 3)


@pytest.mark.parametrize("table", [case1_demand_table, case2_demand_table])
def test_neither_table_backs_the_trivial_certificate(table):
    with pytest.raises(OutOfCaseRange, match=r"^\(1, 1\) outside the "):
        table(1, 1)
    assert case1_certificate(1, 1).demands == case2_certificate(1, 1).demands == ((1,),)


@pytest.mark.parametrize("i", [0, 3])
def test_case2_sets_refuses_an_index_outside_the_files(i):
    with pytest.raises(IndexOutOfRange, match=rf"^i={i} outside \[1, 2\]$"):
        case2_sets(2, 5, i)
