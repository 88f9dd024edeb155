import math

import numpy as np
import pytest

from ppmetrics.assignment import (
    MAX_TRANSPORT_SIDE,
    min_cost_matching,
    solve_assignment,
    solve_transportation,
)

from oracles import brute_force_assignment, brute_force_transportation


def test_zero_diagonal_forces_identity():
    res = solve_assignment([[0.0, 1.0], [1.0, 0.0]])
    assert res.permutation.tolist() == [0, 1]
    assert res.total_cost == 0.0


def test_single_cell():
    res = solve_assignment([[1.0]])
    assert res.permutation.tolist() == [0]
    assert res.total_cost == 1.0


def test_random_6x6_matches_brute_force():
    gen = np.random.default_rng(2024)
    cost = gen.random((6, 6))
    res = solve_assignment(cost)
    best, _ = brute_force_assignment(cost)
    assert abs(res.total_cost - best) < 1e-12


@pytest.mark.parametrize("size", range(1, 8))
def test_matches_brute_force_across_sizes(size):
    gen = np.random.default_rng(100 + size)
    for _ in range(30):
        cost = gen.random((size, size))
        res = solve_assignment(cost)
        best, _ = brute_force_assignment(cost)
        assert abs(res.total_cost - best) < 1e-12
        # reported cost is consistent with the reported permutation
        assert abs(cost[np.arange(size), res.permutation].sum()
                   - res.total_cost) < 1e-12


def test_row_permutation_permutes_assignment():
    gen = np.random.default_rng(7)
    cost = gen.random((5, 5))
    base = solve_assignment(cost)
    shuffle = gen.permutation(5)
    permuted = solve_assignment(cost[shuffle])
    assert abs(base.total_cost - permuted.total_cost) < 1e-12
    assert np.array_equal(permuted.permutation, base.permutation[shuffle])


def test_constant_shift_adds_n_times_constant():
    gen = np.random.default_rng(8)
    cost = gen.random((6, 6))
    shift = 0.375  # exactly representable
    base = solve_assignment(cost)
    shifted = solve_assignment(cost + shift)
    assert abs(shifted.total_cost - (base.total_cost + 6 * shift)) < 1e-12


def test_determinism():
    gen = np.random.default_rng(9)
    cost = gen.random((10, 10))
    first = solve_assignment(cost)
    second = solve_assignment(cost)
    assert np.array_equal(first.permutation, second.permutation)
    assert first.total_cost == second.total_cost


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0]],                      # non-square
    [[np.nan, 1.0], [1.0, 0.0]],       # NaN
    [[-1.0, 1.0], [1.0, 0.0]],         # negative
    [[np.inf, 1.0], [1.0, 0.0]],       # infinite
])
def test_assignment_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        solve_assignment(bad)


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("ties", [False, True])
def test_min_cost_matching_equals_padded_square(n, ties):
    gen = np.random.default_rng(300 + n + 50 * ties)
    fill = 1.0 if ties else 0.625
    for m in (0, 1, n - 3, n):
        for _ in range(25):
            # integer costs in {0, 1, 2} give many tied optima
            costs = (gen.integers(0, 3, (m, n)).astype(float) if ties
                     else gen.random((m, n)))
            total, rows, cols = min_cost_matching(costs, fill)
            padded = np.full((n, n), fill)
            padded[:m] = costs
            assert abs(total - solve_assignment(padded).total_cost) < 1e-12
            # (rows, cols) is an injection of all m rows into distinct columns
            assert sorted(rows.tolist()) == list(range(m))
            assert len(set(cols.tolist())) == m
            assert all(0 <= j < n for j in cols.tolist())
            matched = math.fsum(costs[rows, cols].tolist())
            assert abs(matched - (total - (n - m) * fill)) < 1e-12


def test_transport_identity_atom():
    res = solve_transportation([1.0], [1.0], [[0.0]])
    assert res.plan.tolist() == [[1.0]]
    assert res.total_cost == 0.0


def test_transport_forced_split():
    res = solve_transportation([1.0], [0.5, 0.5], [[0.0, 1.0]])
    assert np.allclose(res.plan, [[0.5, 0.5]], atol=1e-12)
    assert abs(res.total_cost - 0.5) < 1e-12


def test_transport_random_4x5_matches_vertex_enumeration():
    gen = np.random.default_rng(42)
    for _ in range(3):
        src = gen.random(4)
        src /= src.sum()
        tgt = gen.random(5)
        tgt /= tgt.sum()
        cost = gen.random((4, 5))
        res = solve_transportation(src, tgt, cost)
        oracle = brute_force_transportation(src, tgt, cost)
        assert abs(res.total_cost - oracle) < 1e-9
        assert np.abs(res.plan.sum(axis=1) - src).max() < 1e-10
        assert np.abs(res.plan.sum(axis=0) - tgt).max() < 1e-10
        assert (res.plan >= 0).all()


def test_transport_equal_uniform_weights_matches_assignment():
    gen = np.random.default_rng(11)
    for n in (2, 5, 9):
        cost = gen.random((n, n))
        assign = solve_assignment(cost)
        trans = solve_transportation(np.full(n, 1 / n), np.full(n, 1 / n), cost)
        assert abs(trans.total_cost - assign.total_cost / n) < 1e-10


@pytest.mark.parametrize("src,tgt,cost", [
    ([0.5, 0.4], [0.5, 0.5], [[0, 1], [1, 0]]),     # source not summing to 1
    ([0.5, 0.5], [1.5, -0.5], [[0, 1], [1, 0]]),    # negative weight
    ([1.0], [0.5, 0.5], [[0.0]]),                   # dimension mismatch
])
def test_transport_rejects_bad_input(src, tgt, cost):
    with pytest.raises(ValueError):
        solve_transportation(src, tgt, cost)


def test_transport_rejects_oversize():
    n = MAX_TRANSPORT_SIDE + 1
    with pytest.raises(ValueError, match="exceeds"):
        solve_transportation(
            np.full(n, 1.0 / n), [1.0], np.zeros((n, 1)))
