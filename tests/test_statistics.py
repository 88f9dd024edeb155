import itertools
import math
import warnings

import numpy as np
import pytest

from ppmetrics.geometry import GroundMetricSpec, min_enclosing_ball
from ppmetrics.metrics import MetricParams
from ppmetrics.processes import RngStream, UNIT_SQUARE, sample_collection, \
    sample_poisson_fkappa, sample_poisson_homogeneous
from ppmetrics.statistics import (
    MAX_USTAT_SUBSETS,
    KernelSpec,
    _rejection_threshold,
    avg_nn_statistic,
    homogeneity_test,
    lipschitz_ratio,
    power_study,
    ustat,
)

from oracles import random_pattern

HALF = KernelSpec("half_interpoint", 2, 1.0)
MINBALL2 = KernelSpec("minball_diameter", 2, 1.0)
CENTER = (0.5, 0.5)


def test_ustat_single_pair():
    got = ustat(np.array([[0.0], [1.0]]), HALF, anchor=[0.5])
    assert got == 0.5


def test_ustat_hand_enumeration():
    got = ustat(np.array([[0.0], [0.4], [0.8]]), HALF, anchor=[0.5])
    assert abs(got - (0.2 + 0.4 + 0.2) / 3.0) < 1e-12


def test_ustat_minball_equals_half_interpoint_at_arity_two():
    gen = np.random.default_rng(0)
    for _ in range(100):
        pts = gen.random((2, 2))
        a = ustat(pts, HALF, CENTER)
        b = ustat(pts, MINBALL2, CENTER)
        assert abs(a - b) < 1e-9


def test_ustat_padding_extension():
    # one point: padded with the anchor, kernel of (x, anchor)
    got = ustat(np.array([[0.0, 0.0]]), HALF, CENTER)
    assert abs(got - min(1.0, math.hypot(0.5, 0.5)) / 2.0) < 1e-12
    # empty pattern: kernel of (anchor, anchor) = 0
    assert ustat(np.empty((0, 2)), HALF, CENTER) == 0.0


def test_ustat_minball_arity3_value():
    spec = KernelSpec("minball_diameter", 3, 1.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # single subset: circumscribed ball of the right triangle, diameter sqrt 2
    got = ustat(pts, spec, CENTER)
    assert abs(got - min(math.sqrt(2), 1.0) / 3.0) < 1e-9


def test_ustat_value_in_unit_interval():
    gen = np.random.default_rng(1)
    for _ in range(50):
        pts = random_pattern(gen, 8)
        v = ustat(pts, HALF, CENTER)
        assert 0.0 <= v <= 1.0


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("perimeter", 2)
    with pytest.raises(ValueError):
        KernelSpec("half_interpoint", 3)
    with pytest.raises(ValueError):
        KernelSpec("minball_diameter", 1)


def test_minball_kernel_lipschitz_axiom_arity3():
    # |K(u) - K(v)| <= (1/3) sum of coordinatewise ground moves
    gen = np.random.default_rng(2)
    spec = KernelSpec("minball_diameter", 3, 1.0)
    for _ in range(200):
        u = gen.random((3, 2))
        v = u + gen.normal(scale=0.08, size=(3, 2))
        ku = ustat(u, spec, CENTER)
        kv = ustat(v, spec, CENTER)
        moves = np.minimum(np.linalg.norm(u - v, axis=1), 1.0)
        assert abs(ku - kv) <= moves.sum() / 3.0 + 1e-9


def test_avg_nn_values():
    assert avg_nn_statistic(np.array([[0.2, 0.2], [0.2, 0.2]])) == 0.0
    got = avg_nn_statistic(np.array([[0.0], [0.3], [1.0]]),
                           spec=GroundMetricSpec(dimension=1))
    assert abs(got - 13.0 / 30.0) < 1e-12
    assert avg_nn_statistic(np.empty((0, 2)), alpha0=0.7) == 0.7
    assert avg_nn_statistic(np.array([[0.1, 0.1]]), alpha1=0.4) == 0.4
    with pytest.raises(ValueError):
        avg_nn_statistic(np.empty((0, 2)), alpha0=1.3)


def test_avg_nn_bounded_by_one():
    gen = np.random.default_rng(3)
    for _ in range(50):
        pts = gen.random((int(gen.integers(2, 10)), 2)) * 3
        assert avg_nn_statistic(pts) <= 1.0


def test_lipschitz_ratio_ustat_bounded_by_one():
    gen = np.random.default_rng(4)
    pairs = [(random_pattern(gen, 8), random_pattern(gen, 8))
             for _ in range(500)]
    for kernel in (HALF, MINBALL2):
        stat = lambda p: ustat(p, kernel, CENTER)
        assert lipschitz_ratio(stat, pairs) <= 1.0 + 1e-9


def test_lipschitz_ratio_avg_nn_bounded_by_seven():
    gen = np.random.default_rng(5)
    pairs = [(random_pattern(gen, 8), random_pattern(gen, 8))
             for _ in range(500)]
    ratio = lipschitz_ratio(lambda p: avg_nn_statistic(p, 1.0, 1.0), pairs)
    assert ratio <= 7.0 + 1e-9


def test_lipschitz_ratio_excludes_identical_pairs():
    gen = np.random.default_rng(6)
    a = gen.random((3, 2))
    b = gen.random((4, 2))
    ratio = lipschitz_ratio(lambda p: len(p) / 10.0, [(a, a.copy()), (a, b)])
    assert math.isfinite(ratio)
    with pytest.raises(ValueError):
        lipschitz_ratio(lambda p: 0.0, [(a, a.copy())])
    with pytest.raises(ValueError):
        lipschitz_ratio(lambda p: 0.0, [])


def _poisson_data(n_patterns, lam, seed):
    rng = RngStream(seed, stream_index=7)
    return [sample_poisson_homogeneous(lam, UNIT_SQUARE, rng.substream(i))
            for i in range(n_patterns)]


def test_homogeneity_test_deterministic():
    data = _poisson_data(6, 20.0, 1)
    a = homogeneity_test(data, lam=20.0, n_null=19, rng=RngStream(99))
    b = homogeneity_test(data, lam=20.0, n_null=19, rng=RngStream(99))
    assert a == b
    c = homogeneity_test(data, lam=20.0, n_null=19, rng=RngStream(100))
    assert a.null_statistics != c.null_statistics


def test_homogeneity_statistic_permutation_invariant():
    data = _poisson_data(6, 20.0, 2)
    base = homogeneity_test(data, lam=20.0, n_null=9, rng=RngStream(3))
    gen = np.random.default_rng(4)
    shuffled = [data[i] for i in gen.permutation(len(data))]
    again = homogeneity_test(shuffled, lam=20.0, n_null=9, rng=RngStream(3))
    assert base.statistic == again.statistic


def test_homogeneity_test_result_invariants():
    data = _poisson_data(5, 15.0, 5)
    res = homogeneity_test(data, lam=15.0, n_null=99, rng=RngStream(6))
    assert len(res.null_statistics) == 99
    assert 1 <= res.rank <= 100
    assert res.p_value == res.rank / 100.0
    assert res.reject == (res.rank <= 5)
    # rank agrees with the pooled >= count when there are no ties
    count_ge = 1 + sum(v > res.statistic for v in res.null_statistics)
    assert res.rank == count_ge


def test_homogeneity_test_lambda_estimate_and_errors():
    data = _poisson_data(5, 15.0, 7)
    res = homogeneity_test(data, n_null=9, rng=RngStream(8))
    assert isinstance(res.statistic, float)
    with pytest.raises(ValueError):
        homogeneity_test(data[:1], n_null=9, rng=RngStream(8))
    with pytest.raises(ValueError):
        homogeneity_test(data, lam=-1.0, n_null=9, rng=RngStream(8))
    with pytest.raises(ValueError):
        homogeneity_test([np.empty((0, 2)), np.empty((0, 2))], n_null=9,
                         rng=RngStream(8))
    for bad in ({"n_null": 0}, {"n_null": -5}, {"alpha": 0.0}, {"alpha": 1.0},
                {"alpha": 2.0}, {"alpha": math.nan}):
        with pytest.raises(ValueError):
            homogeneity_test(data, rng=RngStream(8), **{"n_null": 9, **bad})


@pytest.mark.parametrize("n_null", [9, 19, 50])
def test_homogeneity_test_rejects_at_floor_rank(n_null):
    # clustered data rank first, null data anywhere; at n_null = 9 even rank
    # 1 must not reject, since floor(0.05 * 10) = 0
    threshold = math.floor(0.05 * (n_null + 1))
    ranks = set()
    for seed in range(6):
        data = _poisson_data(4, 10.0, 60 + seed)
        if seed % 2:
            data = [0.1 * p for p in data]
        res = homogeneity_test(data, lam=10.0, n_null=n_null, alpha=0.05,
                               rng=RngStream(300 + seed))
        ranks.add(res.rank)
        assert res.reject == (res.rank <= threshold)
    assert 1 in ranks


def test_homogeneity_test_redraw_reference_mode():
    data = _poisson_data(5, 15.0, 9)
    shared = homogeneity_test(data, lam=15.0, n_null=9, rng=RngStream(10))
    redrawn = homogeneity_test(data, lam=15.0, n_null=9, rng=RngStream(10),
                               share_reference=False)
    assert shared.statistic == redrawn.statistic
    assert shared.null_statistics != redrawn.null_statistics


def test_homogeneity_test_small_scale_size():
    # 200 null-data tests; exact 0.05 size, binomial 3-sigma margin
    rejections = 0
    for seed in range(200):
        data = _poisson_data(5, 10.0, 1000 + seed)
        res = homogeneity_test(data, lam=10.0, n_null=19, alpha=0.05,
                               rng=RngStream(2000 + seed))
        rejections += res.reject
    rate = rejections / 200
    assert abs(rate - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 200)


def test_power_study_single_rep_and_determinism():
    est = power_study(4.0, n_patterns=5, lam=10.0, cutoff=0.3, reps=1,
                      rng=RngStream(1), n_null=19, parallel=False)
    assert est.power in (0.0, 1.0)
    assert est.standard_error == 0.0
    again = power_study(4.0, n_patterns=5, lam=10.0, cutoff=0.3, reps=1,
                        rng=RngStream(1), n_null=19, parallel=False)
    assert est == again


def test_power_study_parallel_matches_serial():
    kwargs = dict(n_patterns=4, lam=8.0, cutoff=0.3, reps=6,
                  rng=RngStream(2), n_null=19)
    serial = power_study(3.0, parallel=False, **kwargs)
    parallel = power_study(3.0, parallel=True, **kwargs)
    assert serial == parallel


def test_power_study_validation():
    with pytest.raises(ValueError):
        power_study(0.0, reps=2, parallel=False)
    with pytest.raises(ValueError):
        power_study(1.0, reps=0, parallel=False)


def test_power_study_metric_d1_runs():
    est = power_study(4.0, n_patterns=4, lam=8.0, cutoff=1.0, reps=2,
                      rng=RngStream(3), metric="d1", n_null=19, parallel=False)
    assert 0.0 <= est.power <= 1.0


def test_power_study_share_reference_passthrough():
    kwargs = dict(n_patterns=4, lam=8.0, cutoff=1.0, reps=4,
                  rng=RngStream(12), n_null=19, parallel=False)
    redraw = power_study(3.0, share_reference=False, **kwargs)
    shared = power_study(3.0, share_reference=True, **kwargs)
    # same replicate streams, different pooling designs: results may differ,
    # but both are valid rejection fractions
    assert 0.0 <= redraw.power <= 1.0
    assert 0.0 <= shared.power <= 1.0


@pytest.mark.parametrize("alpha, n_null, threshold", [
    (0.29, 99, 29), (0.57, 99, 57), (0.58, 49, 29),
    (0.05, 9, 0), (0.05, 19, 1), (0.05, 99, 5), (0.05, 50, 2),
])
def test_rejection_threshold_exact_for_decimal_alpha(alpha, n_null, threshold):
    assert _rejection_threshold(alpha, n_null) == threshold


def _tilted_data(n_patterns, lam, kappa, stream):
    return sample_collection(
        n_patterns, lambda s: sample_poisson_fkappa(lam, kappa, s), stream)


@pytest.mark.parametrize("share_reference", [True, False])
def test_early_stop_keeps_decision_and_draws_a_prefix(share_reference):
    stopped = 0
    for seed in range(4):
        for kappa in (1.0, 4.0):
            stream = RngStream(700 + seed)
            data = _tilted_data(6, 12.0, kappa, stream.substream(0))
            kwargs = dict(lam=12.0, params=MetricParams(1.0, 0.3), n_null=19,
                          rng=stream.substream(1),
                          share_reference=share_reference)
            full = homogeneity_test(data, **kwargs)
            early = homogeneity_test(data, early_stop=True, **kwargs)
            n_drawn = len(early.null_statistics)
            assert early.reject == full.reject
            assert early.null_statistics == full.null_statistics[:n_drawn]
            if n_drawn == 19:
                assert early == full
            else:
                # stopped at the first null above the statistic
                assert not early.reject and early.rank == 2 <= full.rank
                assert early.p_value == 2 / 20
                stopped += kappa == 1.0
    assert stopped > 0


def test_early_stop_uses_the_rejection_threshold():
    # alpha * (n_null + 1) = 28.999999999999996 in binary: a stopped test
    # has seen exactly 29 nulls above the statistic
    stopped = 0
    for seed in range(4):
        data = _poisson_data(3, 5.0, 32 + seed)
        res = homogeneity_test(data, lam=5.0, n_null=99, alpha=0.29,
                               rng=RngStream(31 + seed), early_stop=True)
        if len(res.null_statistics) < 99:
            stopped += 1
            assert res.rank == 30 and not res.reject
            assert sum(v > res.statistic for v in res.null_statistics) == 29
        else:
            assert res.reject == (res.rank <= 29)
    assert stopped > 0


def test_early_stop_makes_no_tie_break_draw():
    # empty data against a sparse reference ties with many nulls; a stopped
    # test ranks just below its one higher null whatever the ties
    data = [np.empty((0, 2))] * 3
    tied_stops = 0
    for seed in range(6):
        kwargs = dict(lam=0.3, n_null=19, rng=RngStream(seed))
        early = homogeneity_test(data, early_stop=True, **kwargs)
        assert early.reject == homogeneity_test(data, **kwargs).reject
        if len(early.null_statistics) < 19:
            assert early.rank == 2
            tied_stops += early.statistic in early.null_statistics
    assert tied_stops > 0


def test_early_stop_draws_no_null_at_threshold_zero():
    data = _poisson_data(4, 10.0, 40)
    res = homogeneity_test(data, lam=10.0, n_null=9, alpha=0.05,
                           rng=RngStream(41), early_stop=True)
    assert res.null_statistics == ()
    assert (res.rank, res.p_value, res.reject) == (1, 0.1, False)
    assert not homogeneity_test(data, lam=10.0, n_null=9, alpha=0.05,
                                rng=RngStream(41)).reject


def test_power_study_decisions_match_full_tests():
    kappa, n_patterns, lam, cutoff, reps, n_null = 2.0, 5, 10.0, 0.3, 8, 19
    rng = RngStream(42)
    decisions = []
    for rep in range(reps):
        stream = rng.substream(rep)
        data = _tilted_data(n_patterns, lam, kappa, stream.substream(0))
        decisions.append(homogeneity_test(
            data, params=MetricParams(1.0, cutoff), n_null=n_null,
            rng=stream.substream(1), share_reference=False).reject)
    assert 0 < sum(decisions) < reps
    for parallel in (False, True):
        est = power_study(kappa, n_patterns=n_patterns, lam=lam, cutoff=cutoff,
                          reps=reps, rng=rng, n_null=n_null, parallel=parallel)
        assert est.power == sum(decisions) / reps


def test_ustat_minball_arity3_equals_per_subset_welzl():
    pts = np.random.default_rng(90).random((12, 2))
    for cap in (1.0, 0.3):
        spec = KernelSpec("minball_diameter", 3, cap)
        loop = [min(2.0 * min_enclosing_ball(pts[list(idx)]).radius, cap) / 3
                for idx in itertools.combinations(range(12), 3)]
        want = math.fsum(loop) / len(loop)
        assert math.isclose(ustat(pts, spec, CENTER), want, rel_tol=1e-12)


def test_ustat_subset_limit():
    gen = np.random.default_rng(91)
    spec = KernelSpec("minball_diameter", 3, 1.0)
    # C(200, 3) = 1,313,400 subsets
    assert math.comb(200, 3) > MAX_USTAT_SUBSETS
    with pytest.raises(ValueError, match="1313400 subsets.*MAX_USTAT_SUBSETS"):
        ustat(gen.random((200, 2)), spec, CENTER)
    assert 0.0 < ustat(gen.random((12, 2)), spec, CENTER) <= 1.0 / 3.0
    # arity 2 goes through pdist and has no limit: C(1500, 2) > 10**6
    assert math.comb(1500, 2) > MAX_USTAT_SUBSETS
    assert 0.0 < ustat(gen.random((1500, 2)), HALF, CENTER) <= 0.5


def test_inexact_size_warns_once_per_call():
    data = _poisson_data(4, 10.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        homogeneity_test(data, lam=10.0, n_null=99, alpha=0.05, rng=RngStream(51),
                         early_stop=True)
        power_study(2.0, n_patterns=3, lam=5.0, reps=2, rng=RngStream(52),
                    n_null=19, parallel=False)
    with pytest.warns(UserWarning, match=r"alpha \* \(n_null \+ 1\) = 2\.55 .* size is 0\.0392157"):
        res = homogeneity_test(data, lam=10.0, n_null=50, alpha=0.05, rng=RngStream(51))
    assert res.reject == (res.rank <= 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        power_study(2.0, n_patterns=3, lam=5.0, reps=3, rng=RngStream(52),
                    n_null=9, parallel=False)
    assert [str(w.message)[:24] for w in caught] == ["alpha * (n_null + 1) = 0"]
    assert caught[0].filename == __file__
