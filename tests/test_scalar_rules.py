"""One rule for every public scalar parameter: a real is finite and within
its bounds, a count is an integer; a refusal is a ``ValueError`` that names
the parameter. Also the cutoff warning of the collection paths."""

import math
import re
import warnings

import numpy as np
import pytest

from ppmetrics import bounds, geometry, metrics, processes, statistics
from ppmetrics.cli import main
from ppmetrics.fileio import write_patterns
from ppmetrics.metrics import CountDistribution, MetricParams
from ppmetrics.processes import RngStream

DATA = [np.random.default_rng(k).random((4, 2)) for k in range(3)]
BALL = geometry.Ball(np.zeros(2), 0.25)
MU = CountDistribution.delta(1)


def _power(kappa, **kwargs):
    # every check runs before a replicate is drawn
    return statistics.power_study(kappa, parallel=False, **kwargs)


# (function, parameter) -> call with that parameter set to v
REALS = {
    ("MetricParams", "order"): lambda v: MetricParams(order=v),
    ("MetricParams", "cutoff"): lambda v: MetricParams(cutoff=v),
    ("CountDistribution.binomial", "p"): lambda v: CountDistribution.binomial(3, v),
    ("poisson_truncated", "lam"): lambda v: CountDistribution.poisson_truncated(v),
    ("poisson_truncated", "tail"):
        lambda v: CountDistribution.poisson_truncated(3.0, tail=v),
    ("GroundMetricSpec", "cap"): lambda v: geometry.GroundMetricSpec(cap=v),
    ("capped_ball_diameter", "cap"): lambda v: geometry.capped_ball_diameter(BALL, v),
    ("KernelSpec", "cap"): lambda v: statistics.KernelSpec("half_interpoint", cap=v),
    ("avg_nn_statistic", "alpha0"):
        lambda v: statistics.avg_nn_statistic(DATA[0], alpha0=v),
    ("avg_nn_statistic", "alpha1"):
        lambda v: statistics.avg_nn_statistic(DATA[0], alpha1=v),
    ("homogeneity_test", "lam"): lambda v: statistics.homogeneity_test(DATA, lam=v),
    ("homogeneity_test", "alpha"): lambda v: statistics.homogeneity_test(DATA, alpha=v),
    ("power_study", "kappa"): lambda v: _power(v),
    ("power_study", "lam"): lambda v: _power(1.0, lam=v),
    ("power_study", "cutoff"): lambda v: _power(1.0, cutoff=v),
    ("power_study", "order"): lambda v: _power(1.0, order=v),
    ("power_study", "alpha"): lambda v: _power(1.0, alpha=v),
    ("sample_poisson_homogeneous", "lambda_total"):
        lambda v: processes.sample_poisson_homogeneous(v),
    ("sample_poisson_fkappa", "lambda_total"):
        lambda v: processes.sample_poisson_fkappa(v, 1.0),
    ("sample_poisson_fkappa", "kappa"):
        lambda v: processes.sample_poisson_fkappa(30.0, v),
    ("sample_bernoulli_process", "p"):
        lambda v: processes.sample_bernoulli_process(10, v),
    ("sample_binomial_process", "p"):
        lambda v: processes.sample_binomial_process(10, v),
    ("evolve_immigration_death", "lambda_total"):
        lambda v: processes.evolve_immigration_death(DATA[0], v, t=1.0),
    ("evolve_immigration_death", "t"):
        lambda v: processes.evolve_immigration_death(DATA[0], 5.0, t=v),
    ("stein_factor_delta1", "lam"): lambda v: bounds.stein_factor_delta1(10, v),
    ("stein_factor_delta2", "lam"): lambda v: bounds.stein_factor_delta2(None, v),
    ("bernoulli_binomial_bound", "p"):
        lambda v: bounds.bernoulli_binomial_bound(10, v),
    ("binomial_poisson_bound", "p"): lambda v: bounds.binomial_poisson_bound(10, v),
    ("bernoulli_poisson_bound", "p"):
        lambda v: bounds.bernoulli_poisson_bound(10, v),
    ("iid_bounds", "dw_locations"): lambda v: bounds.iid_bounds(MU, MU, v),
    ("poisson_poisson_bound", "mu_total"):
        lambda v: bounds.poisson_poisson_bound(v, 1.0, 0.0),
    ("poisson_poisson_bound", "nu_total"):
        lambda v: bounds.poisson_poisson_bound(1.0, v, 0.0),
    ("poisson_poisson_bound", "dw_normalized"):
        lambda v: bounds.poisson_poisson_bound(1.0, 1.0, v),
    ("counterexample_integrals", "lam"): lambda v: bounds.counterexample_integrals(v),
}

COUNTS = {
    ("KernelSpec", "arity"): lambda v: statistics.KernelSpec("minball_diameter", arity=v),
    ("CountDistribution.delta", "k"): lambda v: CountDistribution.delta(v),
    ("CountDistribution.binomial", "n"): lambda v: CountDistribution.binomial(v, 0.5),
    ("dR", "m"): lambda v: metrics.dR(v, 2),
    ("dR", "n"): lambda v: metrics.dR(2, v),
    ("subset_enclosing_diameters", "size"):
        lambda v: geometry.subset_enclosing_diameters(DATA[0], v),
    ("homogeneity_test", "n_null"):
        lambda v: statistics.homogeneity_test(DATA, n_null=v),
    ("power_study", "reps"): lambda v: _power(1.0, reps=v),
    ("power_study", "n_patterns"): lambda v: _power(1.0, n_patterns=v),
    ("power_study", "n_null"): lambda v: _power(1.0, n_null=v),
    ("sample_bernoulli_process", "n"):
        lambda v: processes.sample_bernoulli_process(v, 0.5),
    ("sample_binomial_process", "n"):
        lambda v: processes.sample_binomial_process(v, 0.5),
    ("sample_collection", "n_patterns"): lambda v: processes.sample_collection(
        v, processes.sample_poisson_homogeneous, RngStream(0)),
    ("stein_factor_delta1", "n"): lambda v: bounds.stein_factor_delta1(v, 5.0),
    ("stein_factor_delta2", "n"): lambda v: bounds.stein_factor_delta2(v, 5.0),
    ("bernoulli_binomial_bound", "n"):
        lambda v: bounds.bernoulli_binomial_bound(v, 0.5),
    ("binomial_poisson_bound", "n"): lambda v: bounds.binomial_poisson_bound(v, 0.5),
    ("bernoulli_poisson_bound", "n"):
        lambda v: bounds.bernoulli_poisson_bound(v, 0.5),
}


def _ids(table):
    return [f"{fn}-{name}" for fn, name in table]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("key", list(REALS), ids=_ids(REALS))
def test_every_real_parameter_refuses_non_finite_values_by_name(key, value):
    with pytest.raises(ValueError, match=f"^{re.escape(key[1])} must be a finite "):
        REALS[key](value)


# an integral float such as 4.0 is not a count either
@pytest.mark.parametrize("value", [2.5, math.nan, 4.0], ids=["2.5", "nan", "4.0"])
@pytest.mark.parametrize("key", list(COUNTS), ids=_ids(COUNTS))
def test_every_count_parameter_refuses_non_integers_by_name(key, value):
    with pytest.raises(ValueError, match=f"^{re.escape(key[1])} must be an integer "):
        COUNTS[key](value)


@pytest.mark.parametrize("lam", [1e12, 1e300])
def test_poisson_truncated_names_lam_when_its_quantile_is_not_a_number(lam):
    with pytest.raises(ValueError, match="exceeds the limit of 1000000") as info:
        CountDistribution.poisson_truncated(lam)
    assert f"lam={lam}" in str(info.value) and "nan" not in str(info.value)


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_binomial_names_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=f"^p must be a finite real >= 0 and <= 1, got {p}"):
        CountDistribution.binomial(3, p)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "d.txt"
    write_patterns(path, DATA)
    return str(path)


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--model", "fkappa", "--kappa", "nan"], "kappa"),
    (["bounds", "--which", "poisson-poisson", "--mu-total", "nan",
      "--nu-total", "1"], "mu_total"),
    (["bounds", "--which", "iid", "--mu", "poisson:nan", "--nu", "delta:1"], "lam"),
    (["bounds", "--which", "iid", "--mu", "binomial:3,nan", "--nu", "poisson:1"], "p"),
    (["bounds", "--which", "stein1", "--lambda", "inf"], "lam"),
    (["test", "{data}", "--alpha", "nan"], "alpha"),
], ids=["simulate-kappa", "poisson-poisson", "iid-poisson", "iid-binomial", "stein1",
        "test-alpha"])
def test_cli_names_a_non_finite_parameter_and_exits_4(capsys, data_file, argv, name):
    code = main([arg.format(data=data_file) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and f"{name} must be a finite" in err
    assert "Traceback" not in err


CUTOFF_2, CUTOFF_1 = MetricParams(1, 2.0), MetricParams(1, 1.0)


@pytest.mark.parametrize("call", [
    lambda p: metrics.pattern_distance_matrix(DATA, DATA[:2], p),
    lambda p: metrics.dbar2_empirical(DATA, DATA, p),
    lambda p: metrics.dbar2_transport(DATA, DATA[:2], p),
    lambda p: statistics.homogeneity_test(DATA, params=p, n_null=19),
    lambda p: statistics.power_study(1.0, n_patterns=3, lam=5.0, cutoff=p.cutoff,
                                     reps=2, n_null=19, parallel=False),
], ids=["pattern_distance_matrix", "dbar2_empirical", "dbar2_transport",
        "homogeneity_test", "power_study"])
def test_collection_paths_warn_once_per_call_above_cutoff_one(call):
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(CUTOFF_2)
        assert len(caught) == 1
        assert "cutoff 2.0 > 1" in str(caught[0].message)
        # the warning points at the caller's line
        assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(CUTOFF_1)


def test_the_null_loop_validates_only_the_data_and_warns_once(monkeypatch):
    calls = {"_distance_matrix": 0, "metrics.as_pattern": 0, "statistics.as_pattern": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(metrics, "_distance_matrix", "_distance_matrix")
    counted(metrics, "as_pattern", "metrics.as_pattern")
    counted(statistics, "as_pattern", "statistics.as_pattern")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        statistics.homogeneity_test(DATA, params=CUTOFF_2, n_null=19)
    assert calls == {"_distance_matrix": 20, "metrics.as_pattern": 0,
                     "statistics.as_pattern": len(DATA)}
    assert len(caught) == 1


def test_a_numeric_string_is_not_a_real():
    with pytest.raises(ValueError, match="^lambda_total must be a finite positive real"):
        processes.sample_poisson_homogeneous("30")


def test_lipschitz_ratio_warns_once_at_the_callers_line():
    pairs = [(DATA[k % 3], DATA[(k + 1) % 3]) for k in range(5)]
    stat = lambda pattern: float(len(pattern))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        statistics.lipschitz_ratio(stat, pairs, CUTOFF_2)
    assert len(caught) == 1
    assert "cutoff 2.0 > 1" in str(caught[0].message)
    assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        statistics.lipschitz_ratio(stat, pairs, CUTOFF_1)


# (parameter, stream built from the value v)
STREAM_KEYS = {
    "seed": lambda v: RngStream(v),
    "stream_index": lambda v: RngStream(0, v),
    "path key": lambda v: RngStream(0, 1, (2, v)),
    "substream": lambda v: RngStream(0).substream(1).substream(v),
}


@pytest.mark.parametrize("value", [2.5, 2.0, -1, float("nan"), "2", None])
@pytest.mark.parametrize("name", STREAM_KEYS)
def test_stream_keys_are_counts_refused_by_name(name, value):
    label = "substream key" if name == "substream" else name
    with pytest.raises(ValueError, match=f"^{label} must be an integer >= 0, got"):
        STREAM_KEYS[name](value)


def test_stream_keys_are_stored_as_ints():
    stream = RngStream(np.int64(7), np.uint8(1), [np.int32(2)]).substream(np.int16(3))
    assert stream == RngStream(7, 1, (2, 3))
    assert all(type(v) is int for v in (stream.seed, stream.stream_index, *stream.path))
    assert repr(stream) == "RngStream(seed=7, stream_index=1, path=(2, 3))"
    assert (stream.generator().random(3).tobytes()
            == RngStream(7, 1, (2, 3)).generator().random(3).tobytes())


def test_cli_names_a_negative_seed_and_exits_4(capsys):
    code = main(["simulate", "--model", "poisson", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "seed must be an integer >= 0, got -1" in err
