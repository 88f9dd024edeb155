"""Distances between point patterns and between their distributions.

``d1`` is the classical normalized matching distance that jumps to the
cutoff (1 in the paper's setting) as soon as two patterns differ in
cardinality; ``dbar1`` refines it by charging each unmatched point the
cutoff instead, blending positional error with the relative difference in
counts. ``dbar1_pc`` generalizes to an order parameter ``p`` and a cutoff
``c``; note that it normalizes by ``1/n`` *outside* the p-th root, exactly
as defined here (for ``p > 1`` this differs from the OSPA convention that
puts ``1/n`` inside the root). Each of them is one rectangular assignment
of the smaller pattern into the larger, solved by
:func:`~ppmetrics.assignment.min_cost_matching`.

``dbar2_empirical`` lifts the pattern distance to uniform empirical
distributions of patterns, where the Wasserstein distance reduces to one
pattern-level assignment problem; ``dRW`` is the analogous lift of the
relative count difference ``dR`` to count distributions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import binom, poisson

from .assignment import min_cost_matching, solve_transportation
from .geometry import GroundMetricSpec, as_pattern, common_dimension, \
    pairwise_ground_distances

__all__ = [
    "MetricParams",
    "CountDistribution",
    "d1",
    "dbar1",
    "dbar1_pc",
    "dR",
    "dRW",
    "dbar2_empirical",
    "dbar2_transport",
    "dW_empirical",
    "pattern_distance_matrix",
    "matching_details",
    "MAX_DBAR2_CELLS",
]

# N * M cap for the unequal-size transportation fallback of dbar2
MAX_DBAR2_CELLS = 250_000


@dataclass(frozen=True)
class MetricParams:
    """Order parameter ``p >= 1`` and cutoff ``c > 0`` for ``dbar1_pc``."""

    order: float = 1.0
    cutoff: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.order) or self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not np.isfinite(self.cutoff) or self.cutoff <= 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")


@dataclass(frozen=True)
class CountDistribution:
    """Finitely supported probability distribution on the nonnegative integers."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        sup = np.asarray(self.support)
        pr = np.asarray(self.probs, dtype=float)
        if sup.ndim != 1 or pr.ndim != 1 or sup.size != pr.size or sup.size == 0:
            raise ValueError("support and probs must be matching nonempty vectors")
        if not np.array_equal(sup, sup.astype(int)) or (sup < 0).any():
            raise ValueError("support must consist of nonnegative integers")
        if len(np.unique(sup)) != sup.size or (np.diff(sup) <= 0).any():
            raise ValueError("support must be strictly ascending and distinct")
        if (pr < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(math.fsum(pr.tolist()) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1 within 1e-10")
        object.__setattr__(self, "support", tuple(int(k) for k in sup))
        object.__setattr__(self, "probs", tuple(float(p) for p in pr))

    @classmethod
    def delta(cls, k):
        """Point mass at the count ``k``."""
        return cls(support=(int(k),), probs=(1.0,))

    @classmethod
    def binomial(cls, n, p):
        """Binomial(n, p) counts on the full support 0..n."""
        ks = np.arange(n + 1)
        pr = binom.pmf(ks, n, p)
        return cls(support=tuple(ks), probs=tuple(pr / pr.sum()))

    @classmethod
    def poisson_truncated(cls, lam, tail=1e-9):
        """Poisson(lam) truncated at its ``1 - tail`` quantile, renormalized.

        The truncation perturbs any transportation value built on this pmf
        by at most ``2 * tail``.
        """
        if lam <= 0:
            raise ValueError(f"lam must be > 0, got {lam}")
        kmax = int(poisson.ppf(1.0 - tail, lam))
        ks = np.arange(kmax + 1)
        pr = poisson.pmf(ks, lam)
        return cls(support=tuple(ks), probs=tuple(pr / pr.sum()))

    def prob_positive(self):
        """Probability of a strictly positive count."""
        return math.fsum(p for k, p in zip(self.support, self.probs) if k > 0)


def _theory_warning(cutoff):
    if cutoff > 1:
        warnings.warn(
            f"cutoff {cutoff} > 1: distances are bounded by the cutoff, "
            "not by 1, and the theory-mode guarantees do not apply",
            stacklevel=3,
        )


def _pair_matching(a, b, p, c, spec, metric="dbar1"):
    """Value and optimal pairing of two validated patterns.

    The cost of a pair of points is ``min(d0, c) ** p``, with ``d0`` the
    Euclidean distance (further capped by ``spec`` when given), and each
    unmatched point costs ``c ** p``. Returns ``(value, a_idx, b_idx)``
    where ``a[a_idx[k]]`` is matched to ``b[b_idx[k]]``. For ``metric="d1"``
    with differing counts the value is the largest capped ground distance,
    ``c`` or ``spec.cap`` if smaller, and both index arrays are None.
    """
    swapped = len(a) > len(b)
    if swapped:
        a, b = b, a
    m, n = len(a), len(b)
    if metric == "d1" and m != n:
        return (c if spec is None else min(c, spec.cap)), None, None
    costs = cdist(a, b) if m else np.empty((0, n))
    if spec is not None:
        np.minimum(costs, spec.cap, out=costs)
    np.minimum(costs, c, out=costs)
    if p != 1.0:
        np.power(costs, p, out=costs)
    total, rows, cols = min_cost_matching(costs, c ** p)
    value = total ** (1.0 / p) / max(n, 1)
    return (value, cols, rows) if swapped else (value, rows, cols)


def d1(xi, eta, spec=GroundMetricSpec()):
    """Normalized matching distance; ``spec.cap`` when the counts differ.

    For two patterns of common size ``n >= 1`` this is the mean ground
    distance under an optimal pairing; ``d1(empty, empty) = 0``. Patterns
    of different sizes are at the largest ground distance, ``spec.cap``,
    which is 1 in the paper's setting.
    """
    xi = as_pattern(xi)
    eta = as_pattern(eta)
    common_dimension(xi, eta)
    _theory_warning(spec.cap)
    return _pair_matching(xi, eta, 1.0, spec.cap, None, "d1")[0]


def dbar1(xi, eta, spec=GroundMetricSpec()):
    """Matching distance with unmatched points charged the cutoff.

    With ``m = min(|xi|, |eta|)`` and ``n = max(...) >= 1`` this equals
    ``(min over injections of the m matched ground distances + (n - m)
    * cap) / n``; both patterns empty gives 0.
    """
    xi = as_pattern(xi)
    eta = as_pattern(eta)
    common_dimension(xi, eta)
    _theory_warning(spec.cap)
    return _pair_matching(xi, eta, 1.0, spec.cap, None)[0]


def dbar1_pc(xi, eta, params=MetricParams(), spec=None):
    """Order-``p`` cutoff-``c`` matching distance between two patterns.

    Value is ``(min over injections of sum(min(c, d0)^p) + c^p (n - m))
    ** (1/p) / n``; the ground distance ``d0`` is plain Euclidean unless a
    ``spec`` imposes an additional cap. The normalization divides by ``n``
    after taking the p-th root, so for any inputs the value is at most
    ``c`` (and at most ``c * n**(1/p - 1)``).
    """
    xi = as_pattern(xi)
    eta = as_pattern(eta)
    common_dimension(xi, eta)
    _theory_warning(params.cutoff)
    return _pair_matching(xi, eta, params.order, params.cutoff, spec)[0]


def matching_details(xi, eta, params=MetricParams(), spec=None, metric="dbar1"):
    """Distance plus the optimal pairing, for reporting.

    Returns ``(value, pairs)`` where ``pairs`` is a list of ``(i, j)`` with
    ``i`` an index into ``xi`` or None (unmatched) and likewise ``j`` for
    ``eta``. For ``metric="d1"`` with differing cardinalities there is no
    pairing and the list is empty.
    """
    xi = as_pattern(xi)
    eta = as_pattern(eta)
    common_dimension(xi, eta)
    value, xi_idx, eta_idx = _pair_matching(
        xi, eta, params.order, params.cutoff, spec, metric)
    if xi_idx is None:
        return value, []
    pairs = list(zip(xi_idx.tolist(), eta_idx.tolist()))
    pairs += [(i, None) for i in set(range(len(xi))).difference(xi_idx)]
    pairs += [(None, j) for j in set(range(len(eta))).difference(eta_idx)]
    return value, sorted(pairs, key=lambda t: (t[0] is None, t[0], t[1]))


def dR(m, n):
    """Relative count difference ``|m - n| / max(m, n)``; ``dR(0, 0) = 0``."""
    m, n = int(m), int(n)
    if m < 0 or n < 0:
        raise ValueError(f"counts must be nonnegative, got ({m}, {n})")
    if max(m, n) == 0:
        return 0.0
    return abs(m - n) / max(m, n)


def dRW(mu, nu):
    """Wasserstein lift of ``dR`` between two count distributions.

    Returns ``(value, coupling)`` where the coupling is an optimal
    transport plan over the product of the two supports attaining the value.
    """
    if not isinstance(mu, CountDistribution) or not isinstance(nu, CountDistribution):
        raise ValueError("dRW expects CountDistribution inputs")
    ms = np.asarray(mu.support, dtype=float)
    ns = np.asarray(nu.support, dtype=float)
    denom = np.maximum.outer(ms, ns)
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = np.abs(np.subtract.outer(ms, ns)) / denom
    cost[denom == 0] = 0.0
    plan = solve_transportation(mu.probs, nu.probs, cost)
    return plan.total_cost, plan


def _as_collection(patterns):
    pats = [as_pattern(p) for p in patterns]
    if len(pats) == 0:
        raise ValueError("a pattern collection must contain at least one pattern")
    common_dimension(*pats)
    return pats


def _as_collections(ps, qs, metric):
    if metric not in ("dbar1", "d1"):
        raise ValueError(f"unknown pattern metric {metric!r}")
    ps = _as_collection(ps)
    qs = _as_collection(qs)
    common_dimension(*ps, *qs)
    return ps, qs


def pattern_distance_matrix(ps, qs, params=MetricParams(), spec=None, metric="dbar1"):
    """Matrix of pairwise pattern distances between two collections."""
    ps, qs = _as_collections(ps, qs, metric)
    p, c = params.order, params.cutoff
    out = np.empty((len(ps), len(qs)))
    for i, a in enumerate(ps):
        for j, b in enumerate(qs):
            out[i, j] = _pair_matching(a, b, p, c, spec, metric)[0]
    return out


def _check_equal_sizes(ps, qs):
    if len(ps) != len(qs):
        raise ValueError(
            f"collections have sizes {len(ps)} and {len(qs)}; unequal sizes "
            "require the transportation route, see dbar2_transport"
        )


def dbar2_empirical(ps, qs, params=MetricParams(), spec=None, metric="dbar1"):
    """Wasserstein distance between two uniform empirical pattern collections.

    For equal collection sizes ``N`` this is the mean pattern distance under
    an optimal pattern-level pairing (one N x N assignment). Unequal sizes
    are rejected; use :func:`dbar2_transport` for that case.
    """
    _check_equal_sizes(ps, qs)
    dmat = pattern_distance_matrix(ps, qs, params, spec, metric)
    total, _, _ = min_cost_matching(dmat, 0.0)
    return total / len(ps)


def _nearest_sums(dist, row_counts, col_counts, p, c):
    """Entry ``(i, j)``: the sum over the points of row block ``i`` of
    ``min(c, distance to the nearest point of column block j) ** p``; an
    empty column block is at distance ``c``, an empty row block sums to 0.
    ``dist`` holds the distances between the stacked points."""
    nearest = np.full((dist.shape[0], len(col_counts)), np.inf)
    cols = col_counts > 0
    if dist.size:
        starts = np.cumsum(col_counts) - col_counts
        nearest[:, cols] = np.minimum.reduceat(dist, starts[cols], axis=1)
    np.minimum(nearest, c, out=nearest)
    if p != 1.0:
        np.power(nearest, p, out=nearest)
    sums = np.zeros((len(row_counts), len(col_counts)))
    rows = row_counts > 0
    if dist.shape[0]:
        starts = np.cumsum(row_counts) - row_counts
        sums[rows] = np.add.reduceat(nearest, starts[rows], axis=0)
    return sums


def _pair_lower_bounds(ps, qs, p, c, metric):
    """Lower bound on every entry of ``pattern_distance_matrix(ps, qs)``.

    Every point of either pattern is matched or unmatched, at a cost of at
    least ``min(c, distance to the nearest point of the other pattern) **
    p`` (an unmatched point costs ``c ** p``), and each of the ``n - m``
    points left over in the larger pattern costs ``c ** p`` exactly. So
    the pair's matching total is at least the larger of the two patterns'
    sums of those costs, the smaller pattern's plus ``(n - m) * c ** p``.
    All nearest distances come from one ``cdist`` of the stacked
    collections. ``d1`` at unequal counts is the cutoff itself.
    """
    dim = common_dimension(*ps, *qs)
    stacked = [np.concatenate([a for a in side if len(a)] or [np.empty((0, dim))])
               for side in (ps, qs)]
    dist = cdist(*stacked) if all(len(s) for s in stacked) else \
        np.empty((len(stacked[0]), len(stacked[1])))
    fill = c ** p
    m = np.array([len(a) for a in ps])
    n = np.array([len(b) for b in qs])
    excess = n - m[:, None]
    total = np.maximum(
        _nearest_sums(dist, m, n, p, c) + np.maximum(excess, 0) * fill,
        _nearest_sums(dist.T, n, m, p, c).T + np.maximum(-excess, 0) * fill)
    bounds = total ** (1.0 / p) / np.maximum(np.maximum.outer(m, n), 1)
    if metric == "d1":
        bounds[excess != 0] = c
    return bounds


# relative margin by which a bound must clear the compared value
_SETTLE_MARGIN = 1e-9


def _dbar2_compare(ps, qs, value, params=MetricParams(), metric="dbar1"):
    """Sign of ``dbar2_empirical(ps, qs, params, None, metric) - value``.

    Returns -1, 0 or +1, and solves pattern pairs only as far as the sign
    needs. Any pairing of the collections costs at least the optimal one,
    so the mean exact distance over one pairing, both sides sorted by
    count, is an upper bound. The matrix then holds those exact entries
    and :func:`_pair_lower_bounds` elsewhere. Each round takes its optimal
    pairing, whose mean is a lower bound, and makes that pairing's entries
    exact, which gives a new upper bound. A bound settles the sign only
    when it clears ``value`` by a relative ``_SETTLE_MARGIN``, far above
    the rounding of either path, so the result always equals the sign of
    the exact difference. Once the optimal pairing holds only exact
    entries the two bounds meet, and a value still within the margin is
    decided by ``dbar2_empirical``: ties come from the exact value alone.
    """
    _check_equal_sizes(ps, qs)
    ps, qs = _as_collections(ps, qs, metric)
    p, c, size = params.order, params.cutoff, len(ps)
    above, below = value * (1 + _SETTLE_MARGIN), value * (1 - _SETTLE_MARGIN)
    rows = np.argsort([len(a) for a in ps], kind="stable")
    cols = np.argsort([len(b) for b in qs], kind="stable")
    upper = [_pair_matching(ps[i], qs[j], p, c, None, metric)[0]
             for i, j in zip(rows, cols)]
    if math.fsum(upper) / size < below:
        return -1
    costs = _pair_lower_bounds(ps, qs, p, c, metric)
    costs[rows, cols] = upper
    known = np.zeros(costs.shape, dtype=bool)
    known[rows, cols] = True
    while True:
        lower, rows, cols = min_cost_matching(costs, 0.0)
        if lower / size > above:
            return 1
        new = ~known[rows, cols]
        if not new.any():
            if lower / size < below:
                return -1
            break
        costs[rows[new], cols[new]] = [
            _pair_matching(ps[i], qs[j], p, c, None, metric)[0]
            for i, j in zip(rows[new], cols[new])]
        known[rows[new], cols[new]] = True
        if math.fsum(costs[rows, cols].tolist()) / size < below:
            return -1
    exact = dbar2_empirical(ps, qs, params, None, metric)
    return int(exact > value) - int(exact < value)


def dbar2_transport(ps, qs, params=MetricParams(), spec=None, metric="dbar1"):
    """Wasserstein distance between uniform empirical collections of any sizes.

    Solves the transportation problem with uniform weights over the
    ``N x M`` matrix of pattern distances; limited to ``N * M`` up to
    ``MAX_DBAR2_CELLS`` cells.
    """
    if len(ps) * len(qs) > MAX_DBAR2_CELLS:
        raise ValueError(
            f"{len(ps)} x {len(qs)} exceeds the {MAX_DBAR2_CELLS}-cell limit"
        )
    dmat = pattern_distance_matrix(ps, qs, params, spec, metric)
    n, m = dmat.shape
    plan = solve_transportation(np.full(n, 1.0 / n), np.full(m, 1.0 / m), dmat)
    return plan.total_cost


def dW_empirical(xs, ys, spec=GroundMetricSpec()):
    """Empirical Wasserstein distance between two equal-size point samples.

    The mean capped ground distance under an optimal one-to-one matching of
    the samples; a consistent estimator of the Wasserstein distance between
    the sampled location distributions.
    """
    xs = as_pattern(xs)
    ys = as_pattern(ys)
    common_dimension(xs, ys)
    if len(xs) != len(ys):
        raise ValueError(f"sample sizes differ: {len(xs)} vs {len(ys)}")
    if len(xs) == 0:
        raise ValueError("samples must be nonempty")
    costs = pairwise_ground_distances(xs, ys, spec)
    total, _, _ = min_cost_matching(costs, 0.0)
    return total / len(xs)
