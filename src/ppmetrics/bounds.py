"""Closed-form approximation bounds and the log-factor counterexample.

``stein_factor_delta1`` and ``stein_factor_delta2`` bound the first and
second differences of the solution of the Poisson-approximation Stein
equation driven by the immigration-death process; the remaining functions
evaluate the distributional bounds built on them (Bernoulli process to
binomial process to Poisson process, point processes of i.i.d. points, and
the Poisson-Poisson special case). ``counterexample_integrals`` evaluates
the two-point-space integrals showing that the logarithmic factors in the
Stein bounds cannot be dropped.

``n = None`` is accepted everywhere a pattern size enters and means
"arbitrarily large": the minimum with the total intensity then always
resolves to the intensity.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1

from .assignment import TransportPlan
from .errors import check_count, check_real
from .metrics import CountDistribution, dRW

__all__ = [
    "IidBoundsResult",
    "stein_factor_delta1",
    "stein_factor_delta2",
    "bernoulli_binomial_bound",
    "binomial_poisson_bound",
    "bernoulli_poisson_bound",
    "iid_bounds",
    "poisson_poisson_bound",
    "counterexample_integrals",
]

EULER_GAMMA = float(np.euler_gamma)


def _check_n_lambda(n, lam):
    lam = check_real("lam", lam, above=0)
    return lam if n is None else min(float(check_count("n", n)), lam)


def stein_factor_delta1(n, lam):
    """First-difference Stein factor for total intensity ``lam``.

    The smallest of 1, ``(0.95 + ln+ lam) / lam``, and
    ``(1 - exp(-min(n, lam))) / min(n, lam)``, with the convention that the
    last ratio equals 1 when ``min(n, lam) == 0``.
    """
    nl = _check_n_lambda(n, lam)
    log_term = (0.95 + max(math.log(lam), 0.0)) / lam
    ratio = 1.0 if nl == 0 else -math.expm1(-nl) / nl
    return min(1.0, log_term, ratio)


def stein_factor_delta2(n, lam):
    """Second-difference Stein factor; at most 0.75 for all inputs.

    The minimum of four terms; the ``1 / min(n, lam)`` term is dropped
    when ``min(n, lam) == 0``.
    """
    nl = _check_n_lambda(n, lam)
    terms = [0.75]
    if nl > 0:
        terms.append(1.0 / nl)
    if n is None:
        terms.append(1.0 / lam)
    else:
        terms.append(1.09 / (n + 1) + 1.0 / lam)
    if lam >= 1.76:
        terms.append(2.0 * math.log(lam) / lam)
    else:
        terms.append(0.75)
    return min(terms)


def bernoulli_binomial_bound(n, p):
    """Distance bound between the Bernoulli process and the binomial process.

    The smaller of ``1/(2n) + p/2`` and ``1/sqrt(3 n p)`` for ``n`` grid
    sites and success probability ``p``.
    """
    n = check_count("n", n, at_least=1)
    p = check_real("p", p, above=0, below=1)
    return min(1.0 / (2 * n) + p / 2.0, 1.0 / math.sqrt(3.0 * n * p))


def binomial_poisson_bound(n, p):
    """Distance bound between the binomial process and Poisson(n p Leb)."""
    n = check_count("n", n, at_least=2)
    p = check_real("p", p, above=0, below=1)
    num = (0.95 + max(math.log(n * p), 0.0)) * p
    return num / max(0.5, math.sqrt((n - 1) * p * (1 - p)))


def bernoulli_poisson_bound(n, p):
    """Bound from the Bernoulli process to its Poisson limit: the two legs summed."""
    return bernoulli_binomial_bound(n, p) + binomial_poisson_bound(n, p)


@dataclass(frozen=True)
class IidBoundsResult:
    """Sandwich for the distance between processes of i.i.d. points.

    ``lower = max(dRW, c1 * dW)`` and ``upper = dRW + c2 * dW`` where
    ``c1 = max(P[M>0], P[N>0])`` and ``c2`` is the mean ratio of the
    smaller to the larger count under the returned optimal count coupling.
    """

    lower: float
    upper: float
    c1: float
    c2: float
    drw_value: float
    coupling: TransportPlan


def iid_bounds(mu, nu, dw_locations):
    """Upper and lower bounds for two processes of i.i.d. points.

    ``mu`` and ``nu`` are the count distributions, ``dw_locations`` the
    Wasserstein distance between the two location distributions (with
    respect to the capped ground distance, so it lies in [0, cap]).
    """
    if not isinstance(mu, CountDistribution) or not isinstance(nu, CountDistribution):
        raise ValueError("iid_bounds expects CountDistribution inputs")
    dw_locations = check_real("dw_locations", dw_locations, at_least=0)
    drw_value, coupling = dRW(mu, nu)
    c1 = max(mu.prob_positive(), nu.prob_positive())
    ms = np.asarray(mu.support, dtype=float)
    ns = np.asarray(nu.support, dtype=float)
    big = np.maximum.outer(ms, ns)
    small = np.minimum.outer(ms, ns)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(big > 0, small / np.where(big > 0, big, 1.0), 0.0)
    c2 = float(np.sum(ratio * coupling.plan))
    lower = max(drw_value, c1 * dw_locations)
    upper = drw_value + c2 * dw_locations
    return IidBoundsResult(
        lower=lower, upper=upper, c1=c1, c2=c2,
        drw_value=drw_value, coupling=coupling,
    )


def poisson_poisson_bound(mu_total, nu_total, dw_normalized):
    """Bound between two Poisson processes with total masses mu and nu.

    ``|mu - nu| / (mu v nu) + (1 - exp(-(mu ^ nu))) * dW`` where ``dW`` is
    the Wasserstein distance between the normalized intensity measures.
    """
    mu_total = check_real("mu_total", mu_total, above=0)
    nu_total = check_real("nu_total", nu_total, above=0)
    dw_normalized = check_real("dw_normalized", dw_normalized, at_least=0)
    count_term = abs(mu_total - nu_total) / max(mu_total, nu_total)
    return count_term + -math.expm1(-min(mu_total, nu_total)) * dw_normalized


def _ratio_integrand(a, s):
    # (1 - exp(-a s)) / (a s), finite limit 1 at s = 0
    x = a * s
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def counterexample_integrals(lam):
    """Two-point-space integrals forcing the log factor in the Stein bounds.

    Returns ``(delta1_value, delta2_value, stated_lower_bound)`` where the
    first two are adaptive quadratures (absolute tolerance 1e-10) of

        int_0^1 (1 - exp(-(lam-1)s)) / ((lam-1)s) * exp(-s) ds
        int_0^1 (1-s) (1 - exp(-(lam-1)s)) / ((lam-1)s) * exp(-s) ds

    and the third is ``exp(-1)/(lam-1) * int_0^{lam-1} (1-exp(-u))/u du``,
    evaluated through the exponential-integral identity
    ``int_0^x (1-exp(-u))/u du = euler_gamma + ln x + E1(x)``.
    """
    a = check_real("lam", lam, above=1) - 1.0
    d1_val, _ = quad(lambda s: _ratio_integrand(a, s) * math.exp(-s), 0.0, 1.0,
                     epsabs=1e-10, epsrel=1e-12)
    d2_val, _ = quad(lambda s: (1.0 - s) * _ratio_integrand(a, s) * math.exp(-s),
                     0.0, 1.0, epsabs=1e-10, epsrel=1e-12)
    lower = math.exp(-1.0) / a * (EULER_GAMMA + math.log(a) + float(exp1(a)))
    return d1_val, d2_val, lower
