"""Input rules of the metric layer: the pattern-pair and collection
prologues, probability vectors and the transport size limit."""

import math
import warnings

import numpy as np
import pytest

from ppmetrics import _kernel
from ppmetrics.assignment import MAX_TRANSPORT_SIDE, solve_transportation
from ppmetrics.cli import main
from ppmetrics.errors import DimensionMismatchError
from ppmetrics.metrics import (
    CountDistribution,
    MetricParams,
    dbar1_pc,
    dbar2_transport,
    matching_details,
    pattern_distance_matrix,
)
from ppmetrics.statistics import KernelSpec


def _points(n):
    return [np.array([[k / n, 0.5]]) for k in range(n)]


def test_dbar2_transport_refuses_a_long_side_before_any_pair(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a pattern pair was solved")

    monkeypatch.setattr(_kernel, "pairs", unreachable)
    for ps, qs in ((_points(MAX_TRANSPORT_SIDE + 1), _points(1)),
                   (_points(1), _points(MAX_TRANSPORT_SIDE + 1))):
        with pytest.raises(ValueError, match="exceeds the supported size 500"):
            dbar2_transport(ps, qs)


def test_dbar2_transport_accepts_the_longest_side():
    ps = _points(MAX_TRANSPORT_SIDE)
    value = dbar2_transport(ps, [np.array([[0.0, 0.5]])])
    assert value == pytest.approx(math.fsum(k / 500 for k in range(500)) / 500,
                                  rel=1e-9)


@pytest.mark.parametrize("make", [
    lambda: CountDistribution((0, 1), (math.nan, 1.0)),
    lambda: CountDistribution((0, 1), (math.inf, 1.0)),
    lambda: CountDistribution((0, 1), (1e308, 1e308)),
    # finite entries outside [0, 1] that sum to 1 (binomial(3, 1.5) stops at
    # its p check now, see test_scalar_rules)
    lambda: CountDistribution((0, 1), (1.5, -0.5)),
    lambda: solve_transportation([math.nan, 1.0], [1.0], [[0.0], [0.0]]),
    lambda: solve_transportation([1.0], [0.5, math.nan], [[0.0, 0.0]]),
])
def test_bad_probability_vectors_raise_before_the_solver(make):
    with pytest.raises(ValueError, match=r"must (lie in \[0, 1\]|sum to 1)"):
        make()


def test_cli_bounds_with_a_bad_binomial_names_the_probabilities(capsys):
    code = main(["bounds", "--which", "iid", "--mu", "binomial:3,1.5",
                 "--nu", "delta:1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "binomial:3,1.5" in err and "p must be a finite real >= 0 and <= 1" in err
    assert "b_eq" not in err


def test_matching_details_warns_at_a_cutoff_above_one_as_dbar1_pc_does():
    a, b = np.zeros((1, 2)), np.ones((1, 2))
    params = MetricParams(1.0, 2.0)
    for call in (lambda: dbar1_pc(a, b, params),
                 lambda: matching_details(a, b, params)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert len(caught) == 1
        assert "cutoff 2.0 > 1" in str(caught[0].message)
        # the warning points at the caller's line
        assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matching_details(a, b, MetricParams(1.0, 1.0))


def test_cli_dist_warns_at_a_cutoff_above_one(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("0 0\n")
    b.write_text("1 1\n")
    with pytest.warns(UserWarning, match="cutoff 2.0 > 1"):
        assert main(["dist", str(a), str(b), "--cutoff", "2"]) == 0


def test_collection_prologue_errors():
    x = np.zeros((1, 2))
    for ps, qs in (([], [x]), ([x], [])):
        with pytest.raises(ValueError, match="at least one pattern"):
            pattern_distance_matrix(ps, qs)
    for ps, qs in (([x, np.zeros((1, 3))], [x]), ([x], [np.zeros((2, 3))])):
        with pytest.raises(DimensionMismatchError):
            pattern_distance_matrix(ps, qs)
    with pytest.raises(ValueError, match="unknown pattern metric"):
        pattern_distance_matrix([x], [x], metric="dbar3")


@pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -1.0])
def test_kernel_spec_rejects_a_cap_that_is_not_finite_and_positive(cap):
    with pytest.raises(ValueError, match="cap must be a finite positive real"):
        KernelSpec("half_interpoint", 2, cap)


def test_matching_details_rejects_an_unknown_metric():
    a, b = np.zeros((1, 2)), np.ones((2, 2))
    with pytest.raises(ValueError, match="unknown pattern metric 'dbar3'"):
        matching_details(a, b, metric="dbar3")


@pytest.mark.parametrize("make, size", [
    (lambda: CountDistribution.binomial(10**9, 0.5), 10**9 + 1),
    (lambda: CountDistribution.poisson_truncated(1e9), None),
    (lambda: CountDistribution.binomial(10**6, 0.5), 10**6 + 1),
], ids=["binomial-1e9", "poisson-1e9", "binomial-1e6"])
def test_count_support_is_sized_before_it_is_built(make, size):
    with pytest.raises(ValueError, match="exceeds the limit of 1000000") as info:
        make()
    if size is not None:
        assert f"support of {size} points" in str(info.value)
