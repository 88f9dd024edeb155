import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2_contingency

from ppmetrics.metrics import CountDistribution
from ppmetrics.processes import (
    RngStream,
    UNIT_SQUARE,
    Window,
    _poisson_stack,
    _substream_grid,
    evolve_immigration_death,
    sample_bernoulli_process,
    sample_binomial_process,
    sample_collection,
    sample_iid_process,
    sample_poisson_fkappa,
    sample_poisson_homogeneous,
    uniform_sampler,
)


def _counts(sampler, n_draws, rng):
    return np.array([len(sampler(rng.substream(i))) for i in range(n_draws)])


def test_poisson_count_moments():
    rng = RngStream(101)
    counts = _counts(lambda s: sample_poisson_homogeneous(30.0, UNIT_SQUARE, s),
                     10_000, rng)
    se_mean = math.sqrt(30.0 / 10_000)
    assert abs(counts.mean() - 30.0) < 3 * se_mean
    # variance of the sample variance for Poisson: (mu4 - sigma^4) / n
    mu4 = 30.0 * (1 + 3 * 30.0)
    se_var = math.sqrt((mu4 - 30.0**2) / 10_000)
    assert abs(counts.var(ddof=1) - 30.0) < 3 * se_var


def test_poisson_points_inside_window():
    win = Window((0.2, 0.4), (0.6, 1.0))
    pts = sample_poisson_homogeneous(50.0, win, RngStream(5))
    assert (pts >= [0.2, 0.4]).all() and (pts <= [0.6, 1.0]).all()


def test_poisson_determinism():
    a = sample_poisson_homogeneous(30.0, UNIT_SQUARE, RngStream(7, 3))
    b = sample_poisson_homogeneous(30.0, UNIT_SQUARE, RngStream(7, 3))
    assert np.array_equal(a, b)
    c = sample_poisson_homogeneous(30.0, UNIT_SQUARE, RngStream(7, 4))
    assert not np.array_equal(a, c)


def test_poisson_rejects_bad_lambda():
    with pytest.raises(ValueError):
        sample_poisson_homogeneous(0.0, UNIT_SQUARE, RngStream(0))


def test_fkappa_uniform_limit():
    rng = RngStream(11)
    xs = np.concatenate([
        sample_poisson_fkappa(1000.0, 1e-6, rng.substream(i))[:, 0]
        for i in range(100)
    ])
    assert xs.size > 90_000
    assert abs(xs.mean() - 0.5) < 0.01


def test_fkappa_mean_matches_quadrature():
    kappa = 2.0
    density = lambda x: kappa * math.exp(-kappa * x) / (1 - math.exp(-kappa))
    target, _ = quad(lambda x: x * density(x), 0.0, 1.0)
    # same value as the closed form 1/2 - exp(-2)/(1-exp(-2))
    assert abs(target - (0.5 - math.exp(-2) / (1 - math.exp(-2)))) < 1e-12
    rng = RngStream(12)
    xs = np.concatenate([
        sample_poisson_fkappa(1000.0, kappa, rng.substream(i))[:, 0]
        for i in range(100)
    ])
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    assert abs(xs.mean() - target) < 3 * se


def test_fkappa_support():
    pts = sample_poisson_fkappa(200.0, 3.0, RngStream(13))
    assert pts.shape[1] == 2
    assert (pts >= 0.0).all() and (pts <= 1.0).all()


def test_bernoulli_edge_probabilities():
    assert len(sample_bernoulli_process(10, 0.0, RngStream(1))) == 0
    full = sample_bernoulli_process(10, 1.0, RngStream(1))
    assert np.allclose(full[:, 0], np.arange(1, 11) / 10.0)


def test_bernoulli_count_mean():
    rng = RngStream(14)
    counts = _counts(lambda s: sample_bernoulli_process(100, 0.1, s), 10_000, rng)
    se = math.sqrt(100 * 0.1 * 0.9 / 10_000)
    assert abs(counts.mean() - 10.0) < 3 * se


def test_binomial_process_count_and_support():
    rng = RngStream(15)
    counts = _counts(lambda s: sample_binomial_process(50, 0.3, s), 5_000, rng)
    se = math.sqrt(50 * 0.3 * 0.7 / 5_000)
    assert abs(counts.mean() - 15.0) < 3 * se
    pts = sample_binomial_process(50, 0.3, RngStream(16))
    assert (pts >= 0.0).all() and (pts <= 1.0).all()
    a = sample_binomial_process(50, 0.3, RngStream(16))
    assert np.array_equal(pts, a)


def test_bernoulli_binomial_same_count_law():
    rng = RngStream(17)
    n_draws = 10_000
    bern = _counts(lambda s: sample_bernoulli_process(50, 0.3, s), n_draws,
                   rng.substream(0))
    binm = _counts(lambda s: sample_binomial_process(50, 0.3, s), n_draws,
                   rng.substream(1))
    from oracles import pooled_chisquare_counts
    table = pooled_chisquare_counts(bern, binm)
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_process_parameter_validation():
    with pytest.raises(ValueError):
        sample_bernoulli_process(0, 0.5, RngStream(0))
    with pytest.raises(ValueError):
        sample_bernoulli_process(5, 1.5, RngStream(0))
    with pytest.raises(ValueError):
        sample_binomial_process(5, -0.1, RngStream(0))
    with pytest.raises(ValueError):
        sample_poisson_fkappa(10.0, 0.0, RngStream(0))


def test_iid_process_delta_zero_gives_empty():
    pat = sample_iid_process(CountDistribution.delta(0), uniform_sampler(),
                             RngStream(18))
    assert pat.shape == (0, 2)


def test_iid_process_count_law():
    counts_dist = CountDistribution((0, 2, 5), (0.2, 0.5, 0.3))
    rng = RngStream(19)
    draws = np.array([
        len(sample_iid_process(counts_dist, uniform_sampler(), rng.substream(i)))
        for i in range(10_000)
    ])
    for k, p in zip(counts_dist.support, counts_dist.probs):
        freq = (draws == k).mean()
        se = math.sqrt(p * (1 - p) / 10_000)
        assert abs(freq - p) < 3 * se


def test_iid_process_determinism():
    a = sample_iid_process(CountDistribution.binomial(3, 0.5),
                           uniform_sampler(), RngStream(20, 1))
    b = sample_iid_process(CountDistribution.binomial(3, 0.5),
                           uniform_sampler(), RngStream(20, 1))
    assert np.array_equal(a, b)


def test_uniform_sampler_pickles():
    window = Window((0.0, -1.0), (2.0, 1.0))
    sampler = pickle.loads(pickle.dumps(uniform_sampler(window)))
    a = sample_iid_process(CountDistribution.delta(5), sampler, RngStream(23))
    b = sample_iid_process(CountDistribution.delta(5), uniform_sampler(window),
                           RngStream(23))
    assert np.array_equal(a, b)


def test_immigration_death_t0_is_identity():
    gen = np.random.default_rng(21)
    xi = gen.random((10, 2))
    out = evolve_immigration_death(xi, 10.0, UNIT_SQUARE, 0.0, RngStream(22))
    assert np.array_equal(out, xi)


def test_immigration_death_steady_state():
    rng = RngStream(23)
    gen = np.random.default_rng(24)
    xi = gen.random((10, 2))
    counts = np.array([
        len(evolve_immigration_death(xi, 10.0, UNIT_SQUARE, 50.0, rng.substream(i)))
        for i in range(10_000)
    ])
    se_mean = math.sqrt(10.0 / 10_000)
    assert abs(counts.mean() - 10.0) < 3 * se_mean
    mu4 = 10.0 * (1 + 3 * 10.0)
    se_var = math.sqrt((mu4 - 100.0) / 10_000)
    assert abs(counts.var(ddof=1) - 10.0) < 3 * se_var


def test_immigration_death_transient_mean():
    lam, t, n0 = 20.0, 0.7, 10
    gen = np.random.default_rng(25)
    xi = gen.random((n0, 2))
    rng = RngStream(26)
    counts = np.array([
        len(evolve_immigration_death(xi, lam, UNIT_SQUARE, t, rng.substream(i)))
        for i in range(10_000)
    ])
    q = math.exp(-t)
    target = lam * (1 - q) + n0 * q
    var = lam * (1 - q) + n0 * q * (1 - q)
    se = math.sqrt(var / 10_000)
    assert abs(counts.mean() - target) < 3 * se


def test_immigration_death_composition_mean():
    lam, t, s = 15.0, 1.2, 0.5
    gen = np.random.default_rng(27)
    xi = gen.random((8, 2))
    rng = RngStream(28)
    single = []
    composed = []
    for i in range(10_000):
        single.append(len(evolve_immigration_death(
            xi, lam, UNIT_SQUARE, t, rng.substream(2 * i))))
        half = evolve_immigration_death(
            xi, lam, UNIT_SQUARE, s, rng.substream(2 * i + 1).substream(0))
        composed.append(len(evolve_immigration_death(
            half, lam, UNIT_SQUARE, t - s, rng.substream(2 * i + 1).substream(1))))
    single = np.array(single, dtype=float)
    composed = np.array(composed, dtype=float)
    se_diff = math.sqrt(single.var(ddof=1) / len(single)
                        + composed.var(ddof=1) / len(composed))
    assert abs(single.mean() - composed.mean()) < 3 * se_diff


def test_immigration_death_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve_immigration_death(np.zeros((1, 2)), 5.0, UNIT_SQUARE, -0.1,
                                 RngStream(0))


def test_window_validation():
    with pytest.raises(ValueError):
        Window((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Window((0.0,), (1.0, 1.0))


def test_sample_collection_uses_disjoint_substreams():
    rng = RngStream(29)
    pats = sample_collection(
        3, lambda s: sample_poisson_homogeneous(20.0, UNIT_SQUARE, s), rng)
    again = sample_collection(
        3, lambda s: sample_poisson_homogeneous(20.0, UNIT_SQUARE, s), rng)
    for a, b in zip(pats, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(pats[0], pats[1])


BOX = Window((0.0, -1.0, 2.0), (2.0, 1.0, 2.5))


@pytest.mark.parametrize("lam", [6.0, 1e-12])
@pytest.mark.parametrize("window", [UNIT_SQUARE, BOX])
def test_poisson_stack_draws_each_pattern_as_the_single_sampler(window, lam):
    rng = RngStream(31, 2)
    children = [rng.substream(i) for i in range(5)]
    lower, upper = np.array(window.lower), np.array(window.upper)
    for streams in (children, list(_substream_grid(rng, range(5)))):
        stack = _poisson_stack(streams, lam, window)
        assert len(stack) == 5
        assert stack.points.shape == (stack.offsets[-1], window.dimension)
        for k, child in enumerate(children):
            gen = child.generator()
            unit = gen.random((int(gen.poisson(lam)), window.dimension))
            want = lower + (upper - lower) * unit
            for got in (stack[k], sample_poisson_homogeneous(lam, window, streams[k])):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
        if lam < 1:  # every pattern is empty
            assert stack.points.shape == (0, window.dimension)
