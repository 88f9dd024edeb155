import math

import numpy as np
import pytest

from ppmetrics.errors import DimensionMismatchError
from ppmetrics.geometry import GroundMetricSpec
from ppmetrics.metrics import (
    CountDistribution,
    MetricParams,
    d1,
    dbar1,
    dbar1_pc,
    dbar2_empirical,
    dbar2_transport,
    dR,
    dRW,
    dW_empirical,
    matching_details,
    pattern_distance_matrix,
)

from oracles import (
    brute_force_d1,
    brute_force_dbar1,
    brute_force_dbar1_pc,
    brute_force_transportation,
    random_pattern,
)

UNIT = GroundMetricSpec(cap=1.0)


# ---------------------------------------------------------------- d1 / dbar1

def test_d1_identity_and_empty():
    gen = np.random.default_rng(0)
    xi = gen.random((5, 2))
    assert d1(xi, xi.copy(), UNIT) == 0.0
    assert d1(np.empty((0, 2)), np.empty((0, 2)), UNIT) == 0.0


def test_d1_maximal_for_unequal_cardinality():
    gen = np.random.default_rng(1)
    xi = gen.random((99, 2))
    eta = np.vstack([xi, gen.random((1, 2))])
    assert d1(xi, eta, UNIT) == 1.0


def test_d1_hand_value_1d():
    xi = np.array([[0.0], [0.5]])
    eta = np.array([[0.1], [0.4]])
    assert abs(d1(xi, eta, UNIT) - 0.1) < 1e-12
    assert abs(d1(xi, eta, UNIT) - brute_force_d1(xi, eta)) < 1e-15


def test_dbar1_one_extra_point_is_one_over_n():
    gen = np.random.default_rng(2)
    xi = gen.random((99, 2))
    eta = np.vstack([xi, gen.random((1, 2))])
    assert dbar1(xi, eta, UNIT) == 0.01


def test_dbar1_multiple_point_at_same_location():
    x = np.array([[0.4, 0.6]])
    for m, n in ((1, 4), (3, 5), (2, 2), (0, 3)):
        xi = np.repeat(x, m, axis=0)
        eta = np.repeat(x, n, axis=0)
        expected = dR(m, n)
        assert abs(dbar1(xi, eta, UNIT) - expected) < 1e-15


def test_dbar1_hand_value_2d():
    xi = np.array([[0.1, 0.1], [0.8, 0.5]])
    eta = np.array([[0.1, 0.2], [0.8, 0.5], [0.3, 0.3]])
    expected = (0.1 + 0.0 + 1.0) / 3.0
    assert abs(dbar1(xi, eta, UNIT) - expected) < 1e-12
    assert abs(dbar1(xi, eta, UNIT) - brute_force_dbar1(xi, eta)) < 1e-15


def test_dbar1_empty_vs_nonempty_is_one():
    gen = np.random.default_rng(3)
    eta = gen.random((4, 2))
    assert dbar1(np.empty((0, 2)), eta, UNIT) == 1.0
    assert dbar1(eta, np.empty((0, 2)), UNIT) == 1.0
    assert dbar1(np.empty((0, 2)), np.empty((0, 2)), UNIT) == 0.0


def test_dbar1_matches_injection_oracle():
    gen = np.random.default_rng(4)
    for _ in range(250):
        xi = random_pattern(gen, 6)
        eta = random_pattern(gen, 6)
        got = dbar1(xi, eta, UNIT)
        want = brute_force_dbar1(xi, eta)
        assert abs(got - want) < 1e-12


def test_dbar1_equal_cardinality_equals_d1_exactly():
    gen = np.random.default_rng(5)
    for _ in range(100):
        m = int(gen.integers(1, 7))
        xi = gen.random((m, 2))
        eta = gen.random((m, 2))
        assert dbar1(xi, eta, UNIT) == d1(xi, eta, UNIT)


def test_chain_dr_dbar1_d1():
    gen = np.random.default_rng(6)
    for _ in range(500):
        xi = random_pattern(gen, 8)
        eta = random_pattern(gen, 8)
        lo = dR(len(xi), len(eta))
        mid = dbar1(xi, eta, UNIT)
        hi = d1(xi, eta, UNIT)
        assert lo <= mid <= hi


def test_dbar1_metric_axioms_sampled():
    gen = np.random.default_rng(7)
    for _ in range(2000):
        xi = random_pattern(gen, 8)
        eta = random_pattern(gen, 8)
        zeta = random_pattern(gen, 8)
        dxe = dbar1(xi, eta, UNIT)
        assert dxe == dbar1(eta, xi, UNIT)
        assert dxe <= dbar1(xi, zeta, UNIT) + dbar1(zeta, eta, UNIT) + 1e-12
    # identity of indiscernibles: zero iff equal as multisets
    xi = gen.random((5, 2))
    assert dbar1(xi, xi[gen.permutation(5)], UNIT) == 0.0
    eta = xi.copy()
    eta[0] += 1e-6
    assert dbar1(xi, eta, UNIT) > 0.0


def test_dbar1_theory_mode_warning():
    loose = GroundMetricSpec(cap=1.5, theory_mode=False)
    with pytest.warns(UserWarning):
        dbar1(np.zeros((1, 2)), np.ones((1, 2)), loose)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        dbar1(np.zeros((2, 2)), np.zeros((2, 3)), UNIT)


# ------------------------------------------------------------------ dbar1_pc

def test_dbar1_pc_reduces_to_dbar1():
    gen = np.random.default_rng(8)
    params = MetricParams(order=1.0, cutoff=1.0)
    for _ in range(500):
        xi = random_pattern(gen, 7)
        eta = random_pattern(gen, 7)
        assert abs(dbar1_pc(xi, eta, params, UNIT) - dbar1(xi, eta, UNIT)) < 1e-12


def test_dbar1_pc_hand_value():
    xi = np.array([[0.0]])
    eta = np.array([[0.2], [0.9]])
    got = dbar1_pc(xi, eta, MetricParams(order=1.0, cutoff=0.3))
    assert abs(got - 0.25) < 1e-12


def test_dbar1_pc_bounded_by_cutoff():
    gen = np.random.default_rng(9)
    for params in (MetricParams(1.0, 0.3), MetricParams(2.0, 0.3),
                   MetricParams(3.0, 0.7)):
        for _ in range(200):
            xi = random_pattern(gen, 6) * 2
            eta = random_pattern(gen, 6) * 2
            assert dbar1_pc(xi, eta, params) <= params.cutoff + 1e-12


def test_dbar1_pc_matches_injection_oracle_general_p():
    gen = np.random.default_rng(10)
    for params in (MetricParams(2.0, 0.5), MetricParams(1.5, 1.0)):
        for _ in range(100):
            xi = random_pattern(gen, 5)
            eta = random_pattern(gen, 5)
            got = dbar1_pc(xi, eta, params)
            want = brute_force_dbar1_pc(xi, eta, params.order, params.cutoff)
            assert abs(got - want) < 1e-12


def test_dbar1_pc_cutoff_above_one_warns():
    with pytest.warns(UserWarning):
        dbar1_pc(np.zeros((1, 2)), np.ones((1, 2)), MetricParams(1.0, 2.0))


def test_params_validation():
    with pytest.raises(ValueError):
        MetricParams(order=0.5)
    with pytest.raises(ValueError):
        MetricParams(cutoff=0.0)


# ------------------------------------------------------------------- dR, dRW

def test_dr_values():
    assert dR(3, 3) == 0.0
    assert dR(0, 5) == 1.0
    assert dR(2, 5) == 0.6
    assert dR(0, 0) == 0.0
    with pytest.raises(ValueError):
        dR(-1, 2)


def test_drw_point_masses():
    val, plan = dRW(CountDistribution.delta(2), CountDistribution.delta(3))
    assert val == 1.0 / 3.0
    assert plan.plan.tolist() == [[1.0]]


def test_drw_identity():
    mu = CountDistribution.binomial(4, 0.3)
    val, _ = dRW(mu, mu)
    assert abs(val) < 1e-12


def test_drw_matches_vertex_oracle():
    mu = CountDistribution.binomial(3, 0.5)
    nu = CountDistribution.binomial(3, 0.8)
    val, plan = dRW(mu, nu)
    ms = np.array(mu.support, dtype=float)
    ns = np.array(nu.support, dtype=float)
    denom = np.maximum.outer(ms, ns)
    cost = np.abs(np.subtract.outer(ms, ns)) / np.where(denom > 0, denom, 1.0)
    oracle = brute_force_transportation(mu.probs, nu.probs, cost)
    assert abs(val - oracle) < 1e-9
    assert abs((plan.plan * cost).sum() - val) < 1e-12


def test_drw_below_independence_coupling():
    gen = np.random.default_rng(11)
    for _ in range(100):
        ka = np.sort(gen.choice(np.arange(0, 9), size=3, replace=False))
        kb = np.sort(gen.choice(np.arange(0, 9), size=4, replace=False))
        pa = gen.random(3)
        pa /= pa.sum()
        pb = gen.random(4)
        pb /= pb.sum()
        mu = CountDistribution(tuple(int(k) for k in ka), tuple(pa))
        nu = CountDistribution(tuple(int(k) for k in kb), tuple(pb))
        val, _ = dRW(mu, nu)
        denom = np.maximum.outer(ka.astype(float), kb.astype(float))
        cost = np.abs(np.subtract.outer(ka, kb)) / np.where(denom > 0, denom, 1.0)
        independent = float(pa @ cost @ pb)
        assert val <= independent + 1e-10


def test_count_distribution_validation():
    with pytest.raises(ValueError):
        CountDistribution((1, 1), (0.5, 0.5))      # repeated support
    with pytest.raises(ValueError):
        CountDistribution((2, 1), (0.5, 0.5))      # not ascending
    with pytest.raises(ValueError):
        CountDistribution((0, 1), (0.6, 0.6))      # sums past 1
    with pytest.raises(ValueError):
        CountDistribution((-1, 1), (0.5, 0.5))     # negative count


# --------------------------------------------------------------------- dbar2

def test_dbar2_identity():
    gen = np.random.default_rng(12)
    ps = [gen.random((int(gen.integers(0, 6)), 2)) for _ in range(4)]
    assert dbar2_empirical(ps, [p.copy() for p in ps]) == 0.0


def test_dbar2_single_pair_reduces_to_dbar1_pc():
    gen = np.random.default_rng(13)
    xi = gen.random((4, 2))
    eta = gen.random((6, 2))
    params = MetricParams(1.0, 0.3)
    assert dbar2_empirical([xi], [eta], params) == dbar1_pc(xi, eta, params)


def test_dbar2_matches_collection_permutation_oracle():
    gen = np.random.default_rng(14)
    params = MetricParams(1.0, 1.0)
    ps = [random_pattern(gen, 5) for _ in range(4)]
    qs = [random_pattern(gen, 5) for _ in range(4)]
    got = dbar2_empirical(ps, qs, params, UNIT)
    import itertools
    best = math.inf
    for perm in itertools.permutations(range(4)):
        total = math.fsum(
            brute_force_dbar1(ps[i], qs[perm[i]]) for i in range(4))
        best = min(best, total / 4.0)
    assert abs(got - best) < 1e-12


def test_dbar2_metric_axioms_on_collections():
    gen = np.random.default_rng(15)
    mk = lambda: [random_pattern(gen, 5) for _ in range(int(gen.integers(1, 5)))]
    for _ in range(60):
        n = int(gen.integers(1, 5))
        ps = [random_pattern(gen, 5) for _ in range(n)]
        qs = [random_pattern(gen, 5) for _ in range(n)]
        rs = [random_pattern(gen, 5) for _ in range(n)]
        dpq = dbar2_empirical(ps, qs)
        assert abs(dpq - dbar2_empirical(qs, ps)) < 1e-12
        assert dpq <= (dbar2_empirical(ps, rs)
                       + dbar2_empirical(rs, qs) + 1e-10)
    same = mk()
    assert dbar2_empirical(same, list(reversed(same))) == 0.0


def test_dbar2_unequal_sizes_error_and_transport_route():
    gen = np.random.default_rng(16)
    ps = [gen.random((3, 2)) for _ in range(3)]
    qs = [gen.random((3, 2)) for _ in range(5)]
    with pytest.raises(ValueError, match="transport"):
        dbar2_empirical(ps, qs)
    val = dbar2_transport(ps, qs)
    assert 0.0 <= val <= 1.0
    # transportation route agrees with the assignment route on equal sizes
    qs_eq = [gen.random((3, 2)) for _ in range(3)]
    a = dbar2_empirical(ps, qs_eq)
    b = dbar2_transport(ps, qs_eq)
    assert abs(a - b) < 1e-10


def test_dbar2_d1_variant_mostly_cutoff():
    gen = np.random.default_rng(17)
    ps = [gen.random((2, 2)), gen.random((3, 2))]
    qs = [gen.random((4, 2)), gen.random((5, 2))]
    mat = pattern_distance_matrix(ps, qs, MetricParams(1.0, 0.3), metric="d1")
    assert (mat == 0.3).all()  # all cardinalities differ


def test_d1_is_cutoff_for_unequal_counts_on_every_path():
    gen = np.random.default_rng(19)
    xi, eta = gen.random((3, 2)), gen.random((5, 2))
    params = MetricParams(1.0, 0.5)
    assert d1(xi, eta, GroundMetricSpec(cap=0.5)) == 0.5
    mat = pattern_distance_matrix([xi], [eta], params, metric="d1")
    assert mat[0, 0] == 0.5
    assert matching_details(xi, eta, params, metric="d1") == (0.5, [])


def test_d1_unequal_counts_bounded_by_spec_cap():
    # a spec cap below the cutoff bounds every ground distance, so it also
    # bounds the value at unequal counts
    gen = np.random.default_rng(20)
    a = 0.1 * gen.random((3, 2))
    b, far = gen.random((5, 2)), a + 10.0
    params, spec = MetricParams(1.0, 1.0), GroundMetricSpec(cap=0.5)
    mat = pattern_distance_matrix([a], [b, far], params, spec, metric="d1")
    assert mat.tolist() == [[0.5, 0.5]]
    assert matching_details(a, b, params, spec, metric="d1") == (0.5, [])


def test_pattern_distance_matrix_rejects_unknown_metric():
    with pytest.raises(ValueError):
        pattern_distance_matrix([np.zeros((1, 2))], [np.zeros((1, 2))],
                                metric="prohorov")


# ----------------------------------------------------------------------- dW

def test_dw_identity_and_trivial():
    xs = np.array([[0.0], [1.0]])
    assert dW_empirical(xs, xs.copy(), UNIT) == 0.0
    assert dW_empirical(xs, xs[::-1].copy(), UNIT) == 0.0


def test_dw_uniform_vs_half_uniform():
    gen = np.random.default_rng(18)
    xs = gen.random((200, 1))
    ys = gen.random((200, 1)) / 2.0
    got = dW_empirical(xs, ys, GroundMetricSpec(cap=1.0))
    assert abs(got - 0.25) < 0.05


def test_dw_errors():
    with pytest.raises(ValueError):
        dW_empirical(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        dW_empirical(np.empty((0, 1)), np.empty((0, 1)))


# ------------------------------------------------------------------ pairing

def test_matching_details_markers():
    xi = np.array([[0.1, 0.1], [0.8, 0.5]])
    eta = np.array([[0.1, 0.1], [0.8, 0.5], [0.3, 0.3]])
    value, pairs = matching_details(xi, eta)
    assert abs(value - dbar1(xi, eta, UNIT)) < 1e-15
    matched = [(i, j) for i, j in pairs if i is not None and j is not None]
    unmatched = [(i, j) for i, j in pairs if i is None]
    assert matched == [(0, 0), (1, 1)]
    assert unmatched == [(None, 2)]
    value_d1, pairs_d1 = matching_details(xi, eta, metric="d1")
    assert value_d1 == 1.0 and pairs_d1 == []
