"""Distances between point patterns and between their distributions.

``d1`` is the classical normalized matching distance that jumps to the
cutoff (1 in the paper's setting) as soon as two patterns differ in
cardinality; ``dbar1`` refines it by charging each unmatched point the
cutoff instead, blending positional error with the relative difference in
counts. ``dbar1_pc`` generalizes to an order parameter ``p`` and a cutoff
``c``; note that it normalizes by ``1/n`` *outside* the p-th root, exactly
as defined here (for ``p > 1`` this differs from the OSPA convention that
puts ``1/n`` inside the root). Each of them is one rectangular assignment
of the smaller pattern into the larger. The compiled matching kernel
(:mod:`ppmetrics._kernel`) builds its capped, powered costs, solves it and
sums the picked costs exactly rounded. Its pattern entries take two
collections, each stacked into one point array with offsets. One solves a
list of their pattern pairs, from one pair to every pair of a distance
matrix, in one call.

``dbar2_empirical`` lifts the pattern distance to uniform empirical
distributions of patterns, where the Wasserstein distance reduces to one
pattern-level assignment problem over the matrix of pattern distances.
The kernel's other pattern entry solves it in one call without that whole
matrix: every pair starts at a lower bound on its distance, and only the
pairs that an optimal pairing of the current entries picks are solved,
until the pairing holds only exact distances. The same call settles the
comparison of dbar2 with a value, stopping at the first bound that clears
it. ``dRW`` is the analogous lift of the relative count difference ``dR``
to count distributions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .assignment import _check_transport_side, _check_weights, \
    solve_transportation
from .errors import check_count, check_real
from .geometry import GroundMetricSpec, as_pattern, common_dimension

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
]


@dataclass(frozen=True)
class MetricParams:
    """Order parameter ``p >= 1`` and cutoff ``c > 0`` for ``dbar1_pc``."""

    order: float = 1.0
    cutoff: float = 1.0

    def __post_init__(self):
        check_real("order", self.order, at_least=1)
        check_real("cutoff", self.cutoff, above=0)


# largest support the count-distribution constructors build
_MAX_SUPPORT = 10**6


def _check_support_size(size, support):
    # "not <=" refuses a NaN size too
    if not size <= _MAX_SUPPORT:
        raise ValueError(f"{support} exceeds the limit of {_MAX_SUPPORT} points")


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
        if (np.diff(sup) <= 0).any():
            raise ValueError("support must be strictly ascending and distinct")
        _check_weights(pr, "probabilities")
        object.__setattr__(self, "support", tuple(int(k) for k in sup))
        object.__setattr__(self, "probs", tuple(float(p) for p in pr))

    @classmethod
    def delta(cls, k):
        """Point mass at the count ``k``."""
        return cls(support=(check_count("k", k),), probs=(1.0,))

    @classmethod
    def binomial(cls, n, p):
        """Binomial(n, p) counts on the full support 0..n, at most 10**6 points."""
        # scipy.stats is imported here, not at module level, because it adds
        # about 0.5 s and 20 MB to every `import ppmetrics`
        from scipy.stats import binom

        n = check_count("n", n)
        p = check_real("p", p, at_least=0, at_most=1)
        _check_support_size(n + 1, f"a count support of {n + 1} points")
        ks = np.arange(n + 1)
        pr = binom.pmf(ks, n, p)
        return cls(support=tuple(ks), probs=tuple(pr / pr.sum()))

    @classmethod
    def poisson_truncated(cls, lam, tail=1e-9):
        """Poisson(lam) truncated at its ``1 - tail`` quantile, renormalized.

        The truncation perturbs any transportation value built on this pmf
        by at most ``2 * tail``. A support of more than 10**6 points is
        refused before it is built.
        """
        from scipy.stats import poisson  # imported here, as in binomial

        lam = check_real("lam", lam, above=0)
        kmax = poisson.ppf(1.0 - check_real("tail", tail, above=0, below=1), lam)
        _check_support_size(kmax + 1, f"the count support of Poisson(lam={lam}) "
                                      f"up to its 1 - {tail} quantile")
        ks = np.arange(int(kmax) + 1)
        pr = poisson.pmf(ks, lam)
        return cls(support=tuple(ks), probs=tuple(pr / pr.sum()))

    def prob_positive(self):
        """Probability of a strictly positive count."""
        return math.fsum(p for k, p in zip(self.support, self.probs) if k > 0)


def _warn_cutoff(cutoff):
    """Warn, at the line that called the public function, when ``cutoff > 1``."""
    if cutoff > 1:
        warnings.warn(
            f"cutoff {cutoff} > 1: distances are bounded by the cutoff, "
            "not by 1, and the theory-mode guarantees do not apply",
            stacklevel=3,
        )


def _as_pair(xi, eta):
    """Two validated patterns of a common dimension."""
    xi, eta = as_pattern(xi), as_pattern(eta)
    common_dimension(xi, eta)
    return xi, eta


def _check_metric(metric):
    if metric not in ("dbar1", "d1"):
        raise ValueError(f"unknown pattern metric {metric!r}")


def _pair_matching(a, b, p, c, spec, metric="dbar1"):
    """Value and optimal pairing of two validated patterns.

    The cost of a pair of points is ``min(d0, c) ** p``, with ``d0`` the
    Euclidean distance (further capped by ``spec`` when given), and each
    unmatched point costs ``c ** p``. Returns ``(value, a_idx, b_idx)``,
    one entry per point of the larger pattern: ``a[a_idx[k]]`` is paired
    with ``b[b_idx[k]]``, and an index of -1 marks a point left unmatched.
    For ``metric="d1"`` with differing counts the value is the largest
    capped ground distance, ``c`` or ``spec.cap`` if smaller, and every
    index is -1.
    """
    stack = _Stack([a, b])
    values, match = _kernel.pairs(stack, stack, [0], [1], p, c, _cap(spec),
                                  metric == "d1")
    return float(values[0]), match[:, 0], match[:, 1]


def _cap(spec):
    return math.inf if spec is None else spec.cap


def d1(xi, eta, spec=GroundMetricSpec()):
    """Normalized matching distance; ``spec.cap`` when the counts differ.

    For two patterns of common size ``n >= 1`` this is the mean ground
    distance under an optimal pairing; ``d1(empty, empty) = 0``. Patterns
    of different sizes are at the largest ground distance, ``spec.cap``,
    which is 1 in the paper's setting.
    """
    xi, eta = _as_pair(xi, eta)
    _warn_cutoff(spec.cap)
    return _pair_matching(xi, eta, 1.0, spec.cap, None, "d1")[0]


def dbar1(xi, eta, spec=GroundMetricSpec()):
    """Matching distance with unmatched points charged the cutoff.

    With ``m = min(|xi|, |eta|)`` and ``n = max(...) >= 1`` this equals
    ``(min over injections of the m matched ground distances + (n - m)
    * cap) / n``; both patterns empty gives 0.
    """
    xi, eta = _as_pair(xi, eta)
    _warn_cutoff(spec.cap)
    return _pair_matching(xi, eta, 1.0, spec.cap, None)[0]


def dbar1_pc(xi, eta, params=MetricParams(), spec=None):
    """Order-``p`` cutoff-``c`` matching distance between two patterns.

    Value is ``(min over injections of sum(min(c, d0)^p) + c^p (n - m))
    ** (1/p) / n``; the ground distance ``d0`` is plain Euclidean unless a
    ``spec`` imposes an additional cap. The normalization divides by ``n``
    after taking the p-th root, so for any inputs the value is at most
    ``c`` (and at most ``c * n**(1/p - 1)``). It is symmetric, but for
    ``p > 1`` the triangle inequality can fail, so it is then not a metric.
    """
    xi, eta = _as_pair(xi, eta)
    _warn_cutoff(params.cutoff)
    return _pair_matching(xi, eta, params.order, params.cutoff, spec)[0]


def matching_details(xi, eta, params=MetricParams(), spec=None, metric="dbar1"):
    """Distance plus the optimal pairing, for reporting.

    Returns ``(value, pairs)`` where ``pairs`` is a list of ``(i, j)`` with
    ``i`` an index into ``xi`` or None (unmatched) and likewise ``j`` for
    ``eta``. For ``metric="d1"`` with differing cardinalities there is no
    pairing and the list is empty.
    """
    _check_metric(metric)
    xi, eta = _as_pair(xi, eta)
    _warn_cutoff(params.cutoff)
    value, xi_idx, eta_idx = _pair_matching(
        xi, eta, params.order, params.cutoff, spec, metric)
    pairs = [(None if i < 0 else i, None if j < 0 else j)
             for i, j in zip(xi_idx.tolist(), eta_idx.tolist())
             if (i, j) != (-1, -1)]
    return value, sorted(pairs, key=lambda t: (t[0] is None, t[0], t[1]))


def dR(m, n):
    """Relative count difference ``|m - n| / max(m, n)``; ``dR(0, 0) = 0``."""
    m, n = check_count("m", m), check_count("n", n)
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


def _as_collections(ps, qs, metric):
    """Two validated nonempty collections of a common dimension, stacked."""
    _check_metric(metric)
    ps, qs = [as_pattern(a) for a in ps], [as_pattern(b) for b in qs]
    if not (ps and qs):
        raise ValueError("a pattern collection must contain at least one pattern")
    common_dimension(*ps, *qs)
    return _Stack(ps), _Stack(qs)


class _Stack:
    """Validated patterns of one dimension stacked in one float64 ``(total,
    D)`` array, the collection layout of the matching kernel, which is
    handed it coordinate-major: pattern ``k`` is
    ``points[offsets[k]:offsets[k + 1]]``. An empty pattern, whatever its
    own dimension, adds no point."""

    __slots__ = ("points", "offsets", "counts")

    def __init__(self, patterns):
        self.counts = np.array([len(a) for a in patterns], dtype=np.intp)
        self.offsets = np.zeros(len(patterns) + 1, dtype=np.intp)
        np.cumsum(self.counts, out=self.offsets[1:])
        full = [a for a in patterns if len(a)]
        self.points = np.concatenate(full) if full else \
            np.empty((0, patterns[0].shape[1] if patterns else 1))

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, k):
        return self.points[self.offsets[k]:self.offsets[k + 1]]


def pattern_distance_matrix(ps, qs, params=MetricParams(), spec=None, metric="dbar1"):
    """Matrix of pairwise pattern distances between two collections."""
    ps, qs = _as_collections(ps, qs, metric)
    _warn_cutoff(params.cutoff)
    return _distance_matrix(ps, qs, params, spec, metric)


def _distance_matrix(ps, qs, params, spec, metric):
    """``pattern_distance_matrix`` of two stacks in one kernel call: entry
    ``(i, j)`` is ``_pair_matching(ps[i], qs[j], ...)[0]``."""
    rows, cols = np.indices((len(ps), len(qs))).reshape(2, -1)
    values, _ = _kernel.pairs(ps, qs, rows, cols, params.order, params.cutoff,
                              _cap(spec), metric == "d1")
    return values.reshape(len(ps), len(qs))


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
    ps, qs = _as_collections(ps, qs, metric)
    _warn_cutoff(params.cutoff)
    return _dbar2(ps, qs, params, spec, metric)


def _dbar2(ps, qs, params, spec, metric):
    """``dbar2_empirical`` of two stacks of equal size, in one kernel call
    that solves only the pattern pairs an optimal pairing needs. The value
    is exact: it differs from ``min_cost_matching`` of ``_distance_matrix``
    over the size only in its last bits, and only where two pairings tie in
    real arithmetic, since the two may then sum different ones.
    ``homogeneity_test`` counts a null as tied with the observed statistic
    only when the two are equal bit for bit, so a null whose pairings tie
    the observed one's in real arithmetic may count as above or below it."""
    value, _ = _kernel.dbar2(ps, qs, params.order, params.cutoff, _cap(spec),
                             metric == "d1")
    return value


# relative margin by which a bound must clear the compared value
_SETTLE_MARGIN = 1e-9


def _dbar2_compare(ps, qs, value, params=MetricParams(), metric="dbar1"):
    """Sign of ``dbar2_empirical(ps, qs, params, None, metric) - value``.

    The collections must be validated stacks; only their sizes and the
    metric name are checked, and nothing warns. Returns -1, 0 or +1 from
    one ``_kernel.dbar2`` call, which solves pattern pairs only as far as
    the sign needs: it stops at an upper bound on dbar2 (the mean exact
    distance of one pairing) below ``value``, or at a lower bound (the mean
    of an optimal pairing over lower bounds) above it. A bound settles the
    sign only when it clears ``value`` by a relative ``_SETTLE_MARGIN``,
    far above the rounding of either bound, so the result always equals the
    sign of the exact difference. A value within the margin is compared
    with the exact dbar2, bit-identical to ``_dbar2``: ties come from the
    exact value alone.
    """
    _check_equal_sizes(ps, qs)
    _check_metric(metric)
    r, _ = _kernel.dbar2(ps, qs, params.order, params.cutoff, math.inf, metric == "d1",
                         value * (1 - _SETTLE_MARGIN), value * (1 + _SETTLE_MARGIN))
    return int(r > value) - int(r < value)


def dbar2_transport(ps, qs, params=MetricParams(), spec=None, metric="dbar1"):
    """Wasserstein distance between uniform empirical collections of any sizes.

    Solves the transportation problem with uniform weights over the
    ``N x M`` matrix of pattern distances. A collection of more than
    ``MAX_TRANSPORT_SIDE`` patterns is refused before any pair is solved.
    """
    _check_transport_side(len(ps), len(qs))
    ps, qs = _as_collections(ps, qs, metric)
    _warn_cutoff(params.cutoff)
    dmat = _distance_matrix(ps, qs, params, spec, metric)
    n, m = dmat.shape
    plan = solve_transportation(np.full(n, 1.0 / n), np.full(m, 1.0 / m), dmat)
    return plan.total_cost


def dW_empirical(xs, ys, spec=GroundMetricSpec()):
    """Empirical Wasserstein distance between two equal-size point samples.

    The mean capped ground distance under an optimal one-to-one matching of
    the samples; a consistent estimator of the Wasserstein distance between
    the sampled location distributions.
    """
    xs, ys = _as_pair(xs, ys)
    if len(xs) != len(ys):
        raise ValueError(f"sample sizes differ: {len(xs)} vs {len(ys)}")
    if len(xs) == 0:
        raise ValueError("samples must be nonempty")
    return _pair_matching(xs, ys, 1.0, spec.cap, None)[0]
