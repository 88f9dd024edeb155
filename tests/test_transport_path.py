"""The transport solve: one HiGHS pass whose plan meets both marginals within
1e-10, for count laws whose weights span many orders of magnitude too."""

import json

import numpy as np
import pytest

from ppmetrics.assignment import solve_transportation
from ppmetrics.cli import main
from ppmetrics.metrics import CountDistribution, dRW

TOL = 1e-10


def assert_marginals(plan, mu, nu):
    assert (plan >= 0).all()
    assert np.abs(plan.sum(axis=1) - mu).max() <= TOL
    assert np.abs(plan.sum(axis=0) - nu).max() <= TOL


def drw_cost(mu, nu):
    ms, ns = np.array(mu.support, float), np.array(nu.support, float)
    denom = np.maximum.outer(ms, ns)
    return np.abs(np.subtract.outer(ms, ns)) / np.where(denom == 0, 1.0, denom)


@pytest.mark.parametrize("lam_mu, lam_nu", [(50, 1), (80, 3), (0.5, 150)])
def test_drw_of_far_apart_poisson_laws_meets_its_marginals(lam_mu, lam_nu):
    mu = CountDistribution.poisson_truncated(lam_mu)
    nu = CountDistribution.poisson_truncated(lam_nu)
    value, coupling = dRW(mu, nu)
    assert_marginals(coupling.plan, mu.probs, nu.probs)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(float(np.sum(coupling.plan * drw_cost(mu, nu))),
                                  abs=1e-15)


def test_plan_of_neighbouring_poisson_laws_meets_its_marginals():
    mu = CountDistribution.poisson_truncated(50)
    nu = CountDistribution.poisson_truncated(51)
    plan = solve_transportation(mu.probs, nu.probs, drw_cost(mu, nu))
    assert_marginals(plan.plan, mu.probs, nu.probs)


def test_cli_iid_bounds_of_far_apart_poisson_laws(capsys):
    code = main(["bounds", "--which", "iid", "--mu", "poisson:50", "--nu", "poisson:1"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    doc = json.loads(out)
    plan = np.array(doc["coupling"])
    mu = np.array(CountDistribution.poisson_truncated(50).probs)
    assert plan.shape[0] == mu.size
    assert np.abs(plan.sum(axis=1) - mu).max() <= TOL
    assert doc["values"]["lower"] <= doc["values"]["upper"]
