"""Pattern statistics with controlled sensitivity, and the homogeneity test.

The U-statistics and the average nearest-neighbor distance change by at
most a known constant times ``dbar1`` when the pattern changes, which makes
distributional distance bounds directly transferable to them. The
homogeneity test is an exact-size Monte Carlo test: the observed collection
is compared against a simulated Poisson reference collection, the same
comparison is repeated for simulated null collections, and the observed
statistic is ranked within the pooled exchangeable values.
"""

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial.distance import pdist

from .errors import check_count, check_real
from .geometry import (
    GroundMetricSpec,
    as_pattern,
    nn_distances,
    subset_enclosing_diameters,
)
from .metrics import MetricParams, _as_pair, _check_metric, _dbar2, \
    _dbar2_compare, _pair_matching, _Stack, _warn_cutoff
from .processes import UNIT_SQUARE, RngStream, _poisson_stack, _substream_grid, \
    sample_collection, sample_poisson_fkappa

__all__ = [
    "KernelSpec",
    "TestResult",
    "PowerEstimate",
    "ustat",
    "avg_nn_statistic",
    "lipschitz_ratio",
    "homogeneity_test",
    "power_study",
    "worker_count",
    "MAX_USTAT_SUBSETS",
]

KERNEL_KINDS = ("half_interpoint", "minball_diameter")

# C(n, l) cap on the subsets a U-statistic of arity l >= 3 enumerates
MAX_USTAT_SUBSETS = 10**6

# nulls whose substreams _monte_carlo seeds in one fold: enough to spread
# the fixed cost of each column operation, few enough that an early stop
# leaves little seeded and memory does not grow with n_null
_NULL_BLOCK = 64


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric kernel selector for U-statistics.

    ``half_interpoint`` is the 2-ary kernel ``d0(u, v) / 2``;
    ``minball_diameter`` is the capped diameter of the smallest enclosing
    ball of the ``arity`` arguments divided by the arity (planar patterns
    only).
    """

    kind: str
    arity: int = 2
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        check_count("arity", self.arity, at_least=2)
        if self.kind == "half_interpoint" and self.arity != 2:
            raise ValueError("half_interpoint is a 2-ary kernel")
        check_real("cap", self.cap, above=0)


def ustat(pattern, kernel, anchor):
    """U-statistic of a pattern: mean kernel value over all size-l subsets.

    Patterns with fewer than ``l`` points are first padded with copies of
    the ``anchor`` point, which extends the statistic to all of pattern
    space without increasing its sensitivity; the anchor must be finite
    even when no padding is needed. At arity 2 both kernels are
    half the capped interpoint distance, taken from ``pdist``. At arity
    ``l >= 3`` the enclosing-circle diameters of all ``C(n, l)`` subsets
    come from one vectorised pass of
    :func:`~ppmetrics.geometry.subset_enclosing_diameters`, equal to
    Welzl's :func:`~ppmetrics.geometry.min_enclosing_ball` per subset up to
    rounding; a pattern with more than ``MAX_USTAT_SUBSETS`` subsets raises
    ``ValueError`` before any is enumerated.
    """
    pts = as_pattern(pattern)
    x0 = np.asarray(anchor, dtype=float).reshape(1, -1)
    if not np.isfinite(x0).all():
        raise ValueError(f"anchor must have finite coordinates, got {anchor}")
    if len(pts) > 0 and pts.shape[1] != x0.shape[1]:
        raise ValueError(
            f"anchor dimension {x0.shape[1]} does not match pattern "
            f"dimension {pts.shape[1]}"
        )
    l = kernel.arity
    if len(pts) < l:
        pad = np.repeat(x0, l - len(pts), axis=0)
        pts = np.vstack([pts, pad]) if len(pts) else pad
    if kernel.kind == "minball_diameter" and pts.shape[1] != 2:
        raise ValueError("minball_diameter requires planar patterns")
    if l == 2:
        # the smallest ball around two points has their distance as diameter,
        # so both kernels coincide at arity 2
        d = pdist(pts)
        return float(np.mean(np.minimum(d, kernel.cap)) / 2.0)
    count = math.comb(len(pts), l)
    if count > MAX_USTAT_SUBSETS:
        raise ValueError(
            f"ustat of arity {l} on {len(pts)} points has {count} subsets, "
            f"above the limit MAX_USTAT_SUBSETS = {MAX_USTAT_SUBSETS}"
        )
    vals = np.minimum(subset_enclosing_diameters(pts, l), kernel.cap) / l
    return math.fsum(vals.tolist()) / count


def avg_nn_statistic(pattern, alpha0=1.0, alpha1=1.0, spec=GroundMetricSpec()):
    """Mean capped nearest-neighbor distance, extended to tiny patterns.

    Patterns with 0 or 1 points return ``alpha0`` or ``alpha1``; any values
    in [0, 1] keep the extension Lipschitz.
    """
    alpha0 = check_real("alpha0", alpha0, at_least=0, at_most=1)
    alpha1 = check_real("alpha1", alpha1, at_least=0, at_most=1)
    pts = as_pattern(pattern)
    if len(pts) == 0:
        return alpha0
    if len(pts) == 1:
        return alpha1
    return float(np.mean(nn_distances(pts, spec)))


def lipschitz_ratio(statistic, pairs, params=MetricParams(), spec=None):
    """Worst observed |F(xi) - F(eta)| / dbar1(xi, eta) over pattern pairs.

    Pairs at pattern distance zero are excluded; raises if nothing remains.
    A cutoff above 1 warns once, at the caller's line.
    """
    pairs = list(pairs)
    _warn_cutoff(params.cutoff)
    dists = [_pair_matching(*_as_pair(a, b), params.order, params.cutoff, spec)[0]
             for a, b in pairs]
    ratios = [abs(statistic(a) - statistic(b)) / d
              for (a, b), d in zip(pairs, dists) if d != 0.0]
    if not ratios:
        raise ValueError("no pair with positive pattern distance was supplied")
    return max(ratios)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one Monte Carlo homogeneity test."""

    statistic: float
    null_statistics: tuple
    rank: int
    p_value: float
    reject: bool


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection rate of the test under one alternative."""

    kappa: float
    cutoff: float
    reps: int
    power: float
    standard_error: float


def _rejection_threshold(alpha, n_null):
    """Largest rank that rejects: ``floor(alpha * (n_null + 1))``.

    A product within 1e-9 of an integer is taken as that integer, so a
    decimal ``alpha`` whose product is whole in decimal (0.29 * 100) does
    not lose a rank to binary rounding (28.999999999999996).
    """
    x = alpha * (n_null + 1)
    nearest = round(x)
    return nearest if abs(x - nearest) <= 1e-9 else math.floor(x)


def _check_size(n_null, alpha):
    """Reject ``n_null`` other than a whole number >= 1, or ``alpha`` outside
    (0, 1); warn when the test's size falls below ``alpha``."""
    n_null = check_count("n_null", n_null, at_least=1)
    alpha = check_real("alpha", alpha, above=0, below=1)
    x = alpha * (n_null + 1)
    threshold = _rejection_threshold(alpha, n_null)
    if abs(x - threshold) > 1e-9:
        warnings.warn(
            f"alpha * (n_null + 1) = {x:g} is not an integer, so the test's "
            f"size is {threshold / (n_null + 1):g}, below alpha = {alpha:g}",
            UserWarning, stacklevel=3,
        )


def _monte_carlo(data, lam, params, n_null, alpha, rng, metric,
                 share_reference, window, early_stop, settle):
    """Null loop shared by :func:`homogeneity_test` and :func:`power_study`.

    ``data`` holds validated patterns of the window's dimension and ``lam``
    is a positive float; nothing here validates or warns. The data are
    stacked once, and :func:`~ppmetrics.processes._poisson_stack` draws the
    reference and each null collection straight into one stack. Returns
    ``(observed, nulls, rank, threshold)``. With ``settle=True``
    each null is only compared with the observed statistic by
    :func:`~ppmetrics.metrics._dbar2_compare`, which stops at the first
    bound on the null's dbar2 that settles the comparison, and ``nulls``
    stays empty; the rank, and so the decision, is the same.
    Null ``j`` draws pattern ``i`` from ``rng.substream(1 + j).substream(s)
    .substream(i)``, ``s = 1`` for a redrawn reference, seeded in blocks,
    and the shared reference from ``rng.substream(0).substream(i)``.
    """
    n_patterns = len(data)
    reference = _poisson_stack(
        [rng.substream(0).substream(i) for i in range(n_patterns)], lam, window)
    observed = _dbar2(_Stack(data), reference, params, None, metric)
    threshold = _rejection_threshold(alpha, n_null)
    sides = (0,) if share_reference else (0, 1)
    nulls = []
    n_drawn = n_higher = n_tied = 0
    while n_drawn < n_null and not (early_stop and n_higher >= threshold):
        if n_drawn % _NULL_BLOCK == 0:
            block = _substream_grid(
                rng, range(1 + n_drawn, 1 + min(n_drawn + _NULL_BLOCK, n_null)),
                sides, range(n_patterns))
        streams = block[n_drawn % _NULL_BLOCK]
        null_data = _poisson_stack(streams[0], lam, window)
        ref_i = reference if share_reference else _poisson_stack(streams[1], lam, window)
        if settle:
            sign = _dbar2_compare(null_data, ref_i, observed, params, metric)
        else:
            value = _dbar2(null_data, ref_i, params, None, metric)
            nulls.append(value)
            sign = (value > observed) - (value < observed)
        n_higher += sign > 0
        n_tied += sign == 0
        n_drawn += 1

    rank = 1 + n_higher
    if n_tied and n_drawn == n_null:
        rank += int(rng.substream(n_null + 1).generator().integers(0, n_tied + 1))
    return observed, nulls, rank, threshold


def homogeneity_test(data, lam=None, params=MetricParams(), n_null=99,
                     alpha=0.05, rng=RngStream(0), metric="dbar1",
                     share_reference=True, window=UNIT_SQUARE,
                     early_stop=False):
    """Monte Carlo test of spatial homogeneity from repeated patterns.

    The observed statistic is the empirical pattern-distribution distance
    between the data collection and one simulated collection of homogeneous
    Poisson patterns with total intensity ``lam`` (estimated as the mean
    observed count when not given; data without a point then raise
    ``ValueError``). It is pooled with ``n_null`` statistics
    computed from simulated null collections against the *same* reference
    collection, which makes the pooled values exchangeable under the null
    and the test exactly sized. ``share_reference=False`` instead redraws
    the reference for every null statistic; the pooled values are then
    fully independent under the null, which is also exactly sized but
    couples less power into the reference draw (the shared pool acts as a
    paired design and rejects more often under alternatives, most visibly
    at cutoff 1). Rank ties are broken uniformly at random; the null
    hypothesis is rejected when the observed statistic ranks within the
    top ``floor(alpha * (n_null + 1))`` values, so the size is at most
    ``alpha`` and exactly ``alpha`` when ``alpha * (n_null + 1)`` is an
    integer (Hope 1968); otherwise the size is below ``alpha`` and a
    ``UserWarning`` says so. Requires ``n_null >= 1`` and ``0 < alpha < 1``.

    With ``early_stop=True`` the nulls are drawn in the same order but the
    loop ends as soon as the threshold number of them strictly exceed the
    observed statistic (Besag & Clifford 1991): ties and later nulls can
    no longer bring the rank back within the threshold, so the test does
    not reject. When the threshold is 0 no null is drawn. A stopped result
    holds only the nulls it drew (fewer than ``n_null``), has
    ``reject=False``, and its ``rank = 1 + (nulls above the statistic)``
    and ``p_value = rank / (n_null + 1)`` are lower bounds of the full
    test's; it makes no tie-break draw. A test that does not stop returns
    the same result as with ``early_stop=False``.
    """
    _check_size(n_null, alpha)
    _check_metric(metric)
    data = [as_pattern(p, dim=window.dimension) for p in data]
    if len(data) < 2:
        raise ValueError("homogeneity test requires at least 2 patterns")
    if lam is None:
        lam = sum(len(p) for p in data) / len(data)
        if lam == 0:
            raise ValueError(
                "lam was not given and cannot be estimated: the mean count is 0 "
                "because no pattern has a point; pass lam (--lambda in the CLI)")
    lam = check_real("lam", lam, above=0)
    _warn_cutoff(params.cutoff)
    observed, nulls, rank, threshold = _monte_carlo(
        data, lam, params, n_null, alpha, rng, metric, share_reference, window,
        early_stop, settle=False)
    return TestResult(
        statistic=float(observed),
        null_statistics=tuple(float(v) for v in nulls),
        rank=rank,
        p_value=rank / (n_null + 1),
        reject=rank <= threshold,
    )


def worker_count():
    """Parallel worker cap from PPMETRICS_THREADS (0 or unset = all cores)."""
    raw = os.environ.get("PPMETRICS_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"PPMETRICS_THREADS must be an integer, got {raw!r}")
    n = check_count("PPMETRICS_THREADS", n)
    return n if n > 0 else (os.cpu_count() or 1)


def _power_replicate(rep, kappa, n_patterns, lam, params, n_null, alpha,
                     metric, share_reference, lam_known, rng):
    stream = rng.substream(rep)
    data = sample_collection(n_patterns,
                             lambda s: sample_poisson_fkappa(lam, kappa, s),
                             stream.substream(0))
    test_lam = lam if lam_known else sum(len(p) for p in data) / n_patterns
    if test_lam == 0:
        # data without a point leave no intensity to estimate: no test, no rejection
        return False
    _, _, rank, threshold = _monte_carlo(
        data, test_lam, params, n_null, alpha, stream.substream(1), metric,
        share_reference, UNIT_SQUARE, early_stop=True, settle=True)
    return rank <= threshold


def power_study(kappa, n_patterns=12, lam=30.0, cutoff=1.0, reps=100,
                rng=RngStream(0), metric="dbar1", order=1.0, n_null=99,
                alpha=0.05, share_reference=False, lam_known=False,
                parallel=True):
    """Monte Carlo power of the homogeneity test against a tilted intensity.

    Runs ``reps`` independent tests on fresh collections of Poisson
    patterns whose first coordinate has the normalized exponential tilt of
    strength ``kappa``, and returns the rejection fraction with its
    binomial standard error. ``lam`` is the generating total intensity; by
    default each test estimates the intensity from its own data (the
    test's behavior when none is supplied), with ``lam_known=True`` it is
    handed the generating value instead. A replicate whose data hold no
    point has no intensity to estimate: with ``lam_known=False`` it counts
    as not rejecting, which keeps the size at most ``alpha``. The tests use an independent
    reference pool per statistic (``share_reference=False``); this default
    pair is the design whose power table the study is calibrated against.
    The paired shared-reference design and the known-intensity variant are
    both noticeably more powerful at cutoff 1. Only the decisions are
    used, so each test stops drawing nulls once its non-rejection is
    settled (as ``homogeneity_test(early_stop=True)`` does), and each null
    is only compared with the observed statistic: upper and lower bounds
    on its ``dbar2`` settle the comparison, and its exact value is
    computed only when they do not. That saves the most where the
    power is high, since those tests draw every null but nearly all of
    them lie far below the observed statistic. Every decision, and so the
    power, is that of the full test. A warning is issued once per call
    when ``alpha * (n_null + 1)`` is not an integer. Replicates use
    disjoint substreams and are evaluated in parallel processes (limited
    by PPMETRICS_THREADS) unless ``parallel=False``.
    """
    reps = check_count("reps", reps, at_least=1)
    kappa = check_real("kappa", kappa, above=0)
    n_patterns = check_count("n_patterns", n_patterns, at_least=2)
    lam = check_real("lam", lam, above=0)
    _check_size(n_null, alpha)
    _check_metric(metric)
    job = partial(_power_replicate, kappa=kappa, n_patterns=n_patterns,
                  lam=lam, params=MetricParams(order, cutoff), n_null=n_null,
                  alpha=alpha, metric=metric, share_reference=share_reference,
                  lam_known=lam_known, rng=rng)
    _warn_cutoff(cutoff)
    workers = min(worker_count(), reps) if parallel else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rejects = list(pool.map(job, range(reps), chunksize=max(
                1, reps // (4 * workers))))
    else:
        rejects = [job(rep) for rep in range(reps)]
    power = sum(rejects) / reps
    se = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(kappa=kappa, cutoff=float(cutoff), reps=reps,
                         power=power, standard_error=se)
