"""Property tests of the pattern metrics, the matching kernel and pattern files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppmetrics.assignment import min_cost_matching, solve_assignment
from ppmetrics.fileio import format_patterns, read_patterns
from ppmetrics.metrics import MetricParams, dbar1_pc

coordinate = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
    # a coarse grid makes repeated points and tied matchings likely
    st.integers(0, 4).map(lambda k: k / 4.0),
)
pattern = st.lists(st.tuples(coordinate, coordinate), max_size=6).map(
    lambda pts: np.array(pts, dtype=float).reshape(-1, 2))
params = st.builds(MetricParams, order=st.sampled_from([1.0, 2.0]),
                   cutoff=st.sampled_from([0.3, 1.0]))


@settings(max_examples=300, deadline=None)
@given(pattern, pattern, params)
def test_dbar1_pc_is_symmetric(x, y, p):
    # transposing the cost matrix can pick another optimum among ties
    assert math.isclose(dbar1_pc(x, y, p), dbar1_pc(y, x, p), rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=300, deadline=None)
@given(pattern, pattern, pattern, st.sampled_from([0.3, 1.0]))
def test_dbar1_pc_triangle_inequality_at_order_1(x, y, z, cutoff):
    p = MetricParams(1.0, cutoff)
    assert dbar1_pc(x, y, p) <= dbar1_pc(x, z, p) + dbar1_pc(z, y, p) + 1e-12


@pytest.mark.parametrize("cutoff", [0.3, 1.0])
def test_dbar1_pc_triangle_inequality_fails_at_order_2(cutoff):
    # 1/n outside the p-th root is not a metric for p > 1: a pattern that
    # holds both points twice is close to each of them, which are far apart
    x, y = np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    p = MetricParams(2.0, cutoff)
    assert dbar1_pc(x, y, p) == cutoff
    assert math.isclose(dbar1_pc(x, z, p), cutoff * math.sqrt(3) / 4, rel_tol=1e-15)
    assert math.isclose(dbar1_pc(z, y, p), cutoff * math.sqrt(3) / 4, rel_tol=1e-15)
    assert dbar1_pc(x, y, p) > dbar1_pc(x, z, p) + dbar1_pc(z, y, p)


@st.composite
def matching_problems(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, n))
    cost = st.one_of(st.floats(0.0, 10.0, allow_subnormal=False),
                     st.integers(0, 2).map(float))
    costs = draw(arrays(np.float64, (m, n), elements=cost))
    fill = draw(st.one_of(st.floats(0.0, 10.0, allow_subnormal=False),
                          st.integers(0, 2).map(float)))
    return costs, fill


@settings(max_examples=300, deadline=None)
@given(matching_problems())
def test_min_cost_matching_equals_padded_square_solve(problem):
    costs, fill = problem
    m, n = costs.shape
    total, rows, cols = min_cost_matching(costs, fill)
    padded = np.full((n, n), fill)
    padded[:m] = costs
    assert abs(total - solve_assignment(padded).total_cost) <= 1e-12
    assert sorted(rows.tolist()) == list(range(m))
    assert len(set(cols.tolist())) == m


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def pattern_lists(draw):
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    # an empty pattern carries no dimension, so at least one holds points
    sizes[draw(st.integers(0, len(sizes) - 1))] += 1
    return [draw(arrays(np.float64, (size, dim), elements=finite)) for size in sizes]


@settings(max_examples=200, deadline=None)
@given(pattern_lists())
def test_format_then_read_round_trips_bit_for_bit(tmp_path_factory, patterns):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    path.write_text(format_patterns(patterns), encoding="utf-8")
    back = read_patterns(path)
    assert len(back) == len(patterns)
    for written, read in zip(patterns, back):
        assert read.shape == written.shape and read.dtype == np.float64
        # byte equality also tells -0.0 from 0.0
        assert read.tobytes() == written.tobytes()
