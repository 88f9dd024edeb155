"""The bound-settled comparison of dbar2 with a value, and the power study
decisions built on it."""

import itertools
import math

import numpy as np
import pytest

from ppmetrics import _kernel, metrics
from ppmetrics.metrics import (
    MetricParams,
    _dbar2_compare,
    _Stack,
    dbar2_empirical,
)
from ppmetrics.processes import UNIT_SQUARE, RngStream, sample_collection, \
    sample_poisson_fkappa
from ppmetrics.statistics import _monte_carlo, homogeneity_test, power_study

SETTINGS = list(itertools.product((1.0, 2.0), (0.3, 1.0), ("dbar1", "d1")))


def _collection(gen, n_patterns, lam):
    # every collection holds an empty and a 1-point pattern
    counts = gen.poisson(lam, n_patterns)
    counts[:2] = (0, 1)
    return [gen.random((int(k), 2)) for k in gen.permutation(counts)]


def _collection_pairs(seed, count=12):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n_patterns = int(gen.integers(2, 7))
        lam = float(gen.choice([0.7, 3.0, 8.0]))
        yield _collection(gen, n_patterns, lam), _collection(gen, n_patterns, lam)


def _sign(x):
    return int(x > 0) - int(x < 0)


@pytest.mark.parametrize("order, cutoff, metric", SETTINGS)
def test_dbar2_compare_is_the_sign_of_the_exact_difference(order, cutoff, metric):
    params = MetricParams(order, cutoff)
    gen = np.random.default_rng(5)
    for ps, qs in _collection_pairs(int(10 * order + 100 * cutoff)):
        exact = dbar2_empirical(ps, qs, params, None, metric)
        values = [exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0),
                  0.0, *(cutoff * gen.random(6)), *(exact * (1 + 0.05 * gen.standard_normal(4)))]
        for value in values:
            assert _dbar2_compare(_Stack(ps), _Stack(qs), value, params, metric) == \
                _sign(exact - value)


@pytest.mark.parametrize("metric", ["dbar1", "d1"])
def test_dbar2_compare_of_empty_collections(metric):
    empty = [np.empty((0, 2))] * 3
    params = MetricParams(2.0, 0.3)
    assert _dbar2_compare(_Stack(empty), _Stack(empty), 0.0, params, metric) == 0
    assert _dbar2_compare(_Stack(empty), _Stack(empty), 1e-300, params, metric) == -1
    one = [np.array([[0.5, 0.5]])] * 3
    exact = dbar2_empirical(empty, one, params, None, metric)
    assert exact == pytest.approx(0.3, rel=1e-15)
    assert _dbar2_compare(_Stack(empty), _Stack(one), exact, params, metric) == 0
    assert _dbar2_compare(_Stack(one), _Stack(empty), np.nextafter(exact, 0.0), params,
                          metric) == 1


def _tied_pairs(seed, count=12):
    # points on a coarse grid: many pattern distances and pairings tie
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n_patterns = int(gen.integers(2, 7))
        yield [[gen.integers(0, 4, (int(gen.poisson(3.0)), 2)) / 4.0
                for _ in range(n_patterns)] for _ in range(2)]


def test_dbar2_of_a_tied_pairing_may_round_above_the_full_matrix():
    # two pairings of these collections tie in real arithmetic, and the
    # lazy loop sums the other one than the full matrix: 2 ulp above it
    ps, qs = next(itertools.islice(
        itertools.chain(_collection_pairs(0), _tied_pairs(0, 20)), 20, None))
    xs, ys = _Stack(ps), _Stack(qs)
    lazy, _ = _kernel.dbar2(xs, ys, 1.5, 0.05, math.inf, False)
    costs = metrics._distance_matrix(xs, ys, MetricParams(1.5, 0.05), None, "dbar1")
    full = _kernel.min_cost_matching(costs, 0.0)[0] / len(ps)
    assert 0 <= lazy - full <= 4 * math.ulp(full)


@pytest.mark.parametrize("order, cutoff, metric", SETTINGS)
def test_a_settled_dbar2_is_a_bound_and_an_unsettled_one_is_exact(order, cutoff, metric):
    params = MetricParams(order, cutoff)
    seed = int(7 * order + 50 * cutoff)
    settled = 0
    for ps, qs in itertools.chain(_collection_pairs(seed), _tied_pairs(seed)):
        xs, ys = _Stack(ps), _Stack(qs)
        exact = dbar2_empirical(ps, qs, params, None, metric)
        values = [exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0), 0.0,
                  0.9 * exact, 1.1 * exact]
        # below > above would leave a value between them ambiguous
        for below, above in itertools.combinations_with_replacement(sorted(values), 2):
            r, solved = _kernel.dbar2(xs, ys, order, cutoff, math.inf, metric == "d1",
                                      below, above)
            assert 0 <= solved <= len(ps) ** 2
            if r > above:
                assert exact >= r
            elif r < below:
                assert exact <= r
            else:
                assert r == exact
            settled += r != exact
    assert settled > 0


def test_dbar2_compare_settles_far_values_without_the_full_matrix(monkeypatch):
    gen = np.random.default_rng(11)
    ps = [gen.random((int(gen.poisson(20)), 2)) for _ in range(8)]
    qs = [gen.random((int(gen.poisson(20)), 2)) for _ in range(8)]
    params = MetricParams(1.0, 0.3)
    exact = dbar2_empirical(ps, qs, params)
    solved = []
    dbar2 = _kernel.dbar2

    def counted(*args):
        value, count = dbar2(*args)
        solved.append(count)
        return value, count

    def refused(*args, **kwargs):
        raise AssertionError("the full pattern matrix was solved")

    monkeypatch.setattr(_kernel, "dbar2", counted)
    monkeypatch.setattr(metrics, "_dbar2", refused)
    assert _dbar2_compare(_Stack(ps), _Stack(qs), 1.5 * exact, params) == -1
    assert solved == [8]
    solved.clear()
    assert _dbar2_compare(_Stack(ps), _Stack(qs), 0.5 * exact, params) == 1
    assert len(solved) == 1 and solved[0] < 64


def test_dbar2_compare_rejects_what_dbar2_empirical_rejects():
    a = [np.zeros((2, 2))]
    with pytest.raises(ValueError, match="unequal sizes"):
        _dbar2_compare(_Stack(a), _Stack(a * 2), 0.1)
    with pytest.raises(ValueError, match="unknown pattern metric"):
        _dbar2_compare(_Stack(a), _Stack(a), 0.1, metric="d2")


def test_power_study_d1_order_two_matches_full_tests():
    kappa, n_patterns, lam, cutoff, reps, n_null, alpha = 2.0, 4, 6.0, 0.3, 6, 99, 0.29
    params = MetricParams(2.0, cutoff)
    rng = RngStream(8)
    decisions = []
    for rep in range(reps):
        stream = rng.substream(rep)
        data = sample_collection(
            n_patterns, lambda s: sample_poisson_fkappa(lam, kappa, s), stream.substream(0))
        decisions.append(homogeneity_test(
            data, lam=lam, params=params, n_null=n_null, alpha=alpha,
            rng=stream.substream(1), metric="d1", share_reference=True).reject)
    assert 0 < sum(decisions) < reps
    for parallel in (False, True):
        est = power_study(kappa, n_patterns=n_patterns, lam=lam, cutoff=cutoff,
                          reps=reps, rng=rng, metric="d1", order=2.0, n_null=n_null,
                          alpha=alpha, share_reference=True, lam_known=True,
                          parallel=parallel)
        assert est.power == sum(decisions) / reps


@pytest.mark.parametrize("metric", ["dbar1", "d1"])
def test_settled_nulls_rank_like_the_full_test(metric):
    # sparse patterns make many nulls tie with the observed statistic, so
    # the settled loop must count ties and make the same tie-break draw
    params = MetricParams(1.0, 0.3)
    tied = 0
    for seed in range(8):
        gen = np.random.default_rng(seed)
        data = [gen.random((int(gen.poisson(0.4)), 2)) for _ in range(3)]
        for share_reference in (True, False):
            kwargs = dict(lam=0.5, params=params, n_null=19, alpha=0.3,
                          rng=RngStream(seed), metric=metric,
                          share_reference=share_reference)
            full = homogeneity_test(data, **kwargs)
            higher = sum(v > full.statistic for v in full.null_statistics)
            ties = sum(v == full.statistic for v in full.null_statistics)
            draw = RngStream(seed).substream(20).generator().integers(0, ties + 1)
            assert full.rank == 1 + higher + (draw if ties else 0)
            _, nulls, rank, threshold = _monte_carlo(
                data, 0.5, params, 19, 0.3, RngStream(seed), metric, share_reference,
                UNIT_SQUARE, early_stop=False, settle=True)
            assert nulls == [] and threshold == 6
            assert rank == full.rank
            tied += ties > 0
    assert tied > 4
