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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .geometry import (
    GroundMetricSpec,
    as_pattern,
    nn_distances,
    subset_enclosing_diameters,
)
from .metrics import MetricParams, dbar1_pc, dbar2_empirical
from .processes import UNIT_SQUARE, RngStream, sample_collection, \
    sample_poisson_fkappa, sample_poisson_homogeneous

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
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        if self.kind == "half_interpoint" and self.arity != 2:
            raise ValueError("half_interpoint is a 2-ary kernel")
        if self.cap <= 0:
            raise ValueError(f"cap must be > 0, got {self.cap}")


def ustat(pattern, kernel, anchor):
    """U-statistic of a pattern: mean kernel value over all size-l subsets.

    Patterns with fewer than ``l`` points are first padded with copies of
    the ``anchor`` point, which extends the statistic to all of pattern
    space without increasing its sensitivity. At arity 2 both kernels are
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
    for name, a in (("alpha0", alpha0), ("alpha1", alpha1)):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {a}")
    pts = as_pattern(pattern)
    if len(pts) == 0:
        return float(alpha0)
    if len(pts) == 1:
        return float(alpha1)
    return float(np.mean(nn_distances(pts, spec)))


def lipschitz_ratio(statistic, pairs, params=MetricParams(), spec=None):
    """Worst observed |F(xi) - F(eta)| / dbar1(xi, eta) over pattern pairs.

    Pairs at pattern distance zero are excluded; raises if nothing remains.
    """
    best = None
    for a, b in pairs:
        d = dbar1_pc(a, b, params, spec)
        if d == 0.0:
            continue
        ratio = abs(statistic(a) - statistic(b)) / d
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("no pair with positive pattern distance was supplied")
    return best


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


def homogeneity_test(data, lam=None, params=MetricParams(), n_null=99,
                     alpha=0.05, rng=RngStream(0), metric="dbar1",
                     share_reference=True, window=UNIT_SQUARE,
                     early_stop=False):
    """Monte Carlo test of spatial homogeneity from repeated patterns.

    The observed statistic is the empirical pattern-distribution distance
    between the data collection and one simulated collection of homogeneous
    Poisson patterns with total intensity ``lam`` (estimated as the mean
    observed count when not given). It is pooled with ``n_null`` statistics
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
    integer (Hope 1968). Requires ``n_null >= 1`` and ``0 < alpha < 1``.

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
    data = [as_pattern(p, dim=window.dimension) for p in data]
    if len(data) < 2:
        raise ValueError("homogeneity test requires at least 2 patterns")
    n_patterns = len(data)
    if lam is None:
        lam = sum(len(p) for p in data) / n_patterns
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if n_null < 1:
        raise ValueError(f"n_null must be >= 1, got {n_null}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    def poisson(stream):
        return sample_poisson_homogeneous(lam, window, stream)

    reference = sample_collection(n_patterns, poisson, rng.substream(0))
    observed = dbar2_empirical(data, reference, params, None, metric)
    threshold = _rejection_threshold(alpha, n_null)
    nulls = []
    n_higher = 0
    for i in range(n_null):
        if early_stop and n_higher >= threshold:
            break
        null_stream = rng.substream(1 + i)
        null_data = sample_collection(n_patterns, poisson,
                                      null_stream.substream(0))
        ref_i = reference if share_reference else sample_collection(
            n_patterns, poisson, null_stream.substream(1))
        value = dbar2_empirical(null_data, ref_i, params, None, metric)
        nulls.append(value)
        n_higher += value > observed

    rank = 1 + n_higher
    n_tied = sum(v == observed for v in nulls)
    if n_tied and len(nulls) == n_null:
        rank += int(rng.substream(n_null + 1).generator().integers(0, n_tied + 1))
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
    if n < 0:
        raise ValueError(f"PPMETRICS_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def _power_replicate(args):
    (rep, kappa, n_patterns, lam, order, cutoff, n_null, alpha, metric,
     share_reference, lam_known, seed, stream_index, path) = args
    stream = RngStream(seed, stream_index, tuple(path)).substream(rep)
    data = sample_collection(n_patterns,
                             lambda s: sample_poisson_fkappa(lam, kappa, s),
                             stream.substream(0))
    result = homogeneity_test(
        data, lam=lam if lam_known else None, params=MetricParams(order, cutoff),
        n_null=n_null, alpha=alpha, rng=stream.substream(1), metric=metric,
        share_reference=share_reference, early_stop=True,
    )
    return result.reject


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
    handed the generating value instead. The tests use an independent
    reference pool per statistic (``share_reference=False``); this default
    pair is the design whose power table the study is calibrated against.
    The paired shared-reference design and the known-intensity variant are
    both noticeably more powerful at cutoff 1. Only the decisions are
    used, so each test stops drawing nulls once its non-rejection is
    settled (``early_stop``); every decision, and so the power, is that of
    the full test. Replicates use disjoint substreams and are evaluated in
    parallel processes (limited by PPMETRICS_THREADS) unless
    ``parallel=False``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    jobs = [
        (rep, kappa, n_patterns, lam, order, cutoff, n_null, alpha, metric,
         share_reference, lam_known, rng.seed, rng.stream_index, rng.path)
        for rep in range(reps)
    ]
    workers = min(worker_count(), reps) if parallel else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rejects = list(pool.map(_power_replicate, jobs, chunksize=max(
                1, reps // (4 * workers))))
    else:
        rejects = [_power_replicate(job) for job in jobs]
    power = sum(rejects) / reps
    se = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(kappa=float(kappa), cutoff=float(cutoff), reps=reps,
                         power=power, standard_error=se)
