"""Acceptance suite: one test per release criterion, with a printed
PASS/FAIL line each. Run with ``pytest tests/test_acceptance.py -v -s``.

The expensive criteria (the power table and the test-size sweep) honor the
PPMETRICS_THREADS worker cap.
"""

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ppmetrics.bounds import bernoulli_poisson_bound, counterexample_integrals, \
    iid_bounds
from ppmetrics.geometry import GroundMetricSpec
from ppmetrics.metrics import (
    CountDistribution,
    MetricParams,
    d1,
    dbar1,
    dbar2_empirical,
    dR,
)
from ppmetrics.assignment import solve_assignment
from ppmetrics.processes import (
    RngStream,
    UNIT_SQUARE,
    Window,
    evolve_immigration_death,
    sample_bernoulli_process,
    sample_iid_process,
    sample_poisson_homogeneous,
    uniform_sampler,
)
from ppmetrics.statistics import (
    KernelSpec,
    avg_nn_statistic,
    homogeneity_test,
    power_study,
    ustat,
    worker_count,
)

from oracles import brute_force_dbar1, random_pattern

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
UNIT = GroundMetricSpec(cap=1.0)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_01_fig1_reproduction():
    t0 = time.perf_counter()
    gen = RngStream(1907, 0).generator()  # same seed as the shipped fixture
    base = gen.random((99, 2))
    plus_one = np.vstack([base, gen.random((1, 2))])
    val_dbar1 = dbar1(base, plus_one, UNIT)
    val_d1 = d1(base, plus_one, UNIT)
    elapsed = time.perf_counter() - t0
    ok = val_dbar1 == 0.01 and val_d1 == 1.0 and elapsed < 1.0
    _report(1, "99-vs-100 fixture: dbar1 = 0.01, d1 = 1", ok,
            f"dbar1={val_dbar1!r} d1={val_d1!r} elapsed={elapsed:.3f}s")


# --------------------------------------------------------------- criterion 2

TABLE_DBAR1 = {
    (1.0, 1.0): 0.10, (2.0, 1.0): 0.41, (3.0, 1.0): 0.93, (4.0, 1.0): 1.00,
    (1.0, 0.3): 0.23, (2.0, 0.3): 0.97, (3.0, 0.3): 1.00, (4.0, 0.3): 1.00,
}


def test_criterion_02_power_table():
    t0 = time.perf_counter()
    powers = {}
    failures = []
    for idx, ((kappa, cutoff), target) in enumerate(TABLE_DBAR1.items()):
        est = power_study(kappa, n_patterns=12, lam=30.0, cutoff=cutoff,
                          reps=100, rng=RngStream(5150, stream_index=idx),
                          metric="dbar1")
        powers[(kappa, cutoff)] = est
        if abs(est.power - target) > 0.15:
            failures.append(f"dbar1 ({kappa}, {cutoff}): {est.power} vs {target}")
    d1_powers = {}
    for idx, (kappa, cutoff) in enumerate(TABLE_DBAR1):
        est = power_study(kappa, n_patterns=12, lam=30.0, cutoff=cutoff,
                          reps=100, rng=RngStream(5151, stream_index=idx),
                          metric="d1")
        d1_powers[(kappa, cutoff)] = est
        if est.power > 0.25:
            failures.append(f"d1 ({kappa}, {cutoff}): {est.power} > 0.25")
    elapsed = time.perf_counter() - t0
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f}s > 600s")
    # powers at c = 0.3 rise with kappa, up to one inversion within noise
    c03 = [powers[(k, 0.3)] for k in (1.0, 2.0, 3.0, 4.0)]
    inversions = [
        (a, b) for a, b in zip(c03, c03[1:])
        if b.power < a.power - 2.5 * (a.standard_error + b.standard_error + 1e-9)
    ]
    if len(inversions) > 1:
        failures.append(f"power not monotone in kappa at c=0.3: {inversions}")
    grid = " ".join(
        f"({k},{c})={powers[(k, c)].power:.2f}/{d1_powers[(k, c)].power:.2f}"
        for (k, c) in TABLE_DBAR1)
    _report(2, "power table at paper scale (dbar1/d1 per cell)",
            not failures, f"{grid} elapsed={elapsed:.0f}s {failures}")


# --------------------------------------------------------------- criterion 3

def _perm_min(cost):
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return float(cost[np.arange(n), perms].sum(axis=1).min())


def test_criterion_03_combinatorial_core_exact():
    gen = np.random.default_rng(33)
    worst_pair = 0.0
    for _ in range(1000):
        xi = random_pattern(gen, 6)
        eta = random_pattern(gen, 6)
        worst_pair = max(worst_pair, abs(
            dbar1(xi, eta, UNIT) - brute_force_dbar1(xi, eta)))
    worst_assign = 0.0
    for _ in range(1000):
        n = int(gen.integers(1, 8))
        cost = gen.random((n, n))
        worst_assign = max(worst_assign, abs(
            solve_assignment(cost).total_cost - _perm_min(cost)))
    ok = worst_pair < 1e-12 and worst_assign < 1e-12
    _report(3, "dbar1 = injection oracle; Hungarian = permutation oracle", ok,
            f"max|dbar1 err|={worst_pair:.2e} max|assign err|={worst_assign:.2e}")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_metric_axioms_bulk():
    gen = np.random.default_rng(44)
    n_triples = 100_000
    sym_exact = True
    worst_triangle = -math.inf
    chain_ok = True
    identity_ok = True
    for _ in range(n_triples):
        x = random_pattern(gen, 8)
        y = random_pattern(gen, 8)
        z = random_pattern(gen, 8)
        dxy = dbar1(x, y, UNIT)
        if dxy != dbar1(y, x, UNIT):
            sym_exact = False
        dxz = dbar1(x, z, UNIT)
        dzy = dbar1(z, y, UNIT)
        worst_triangle = max(worst_triangle, dxy - (dxz + dzy))
        if not dR(len(x), len(y)) <= dxy <= d1(x, y, UNIT):
            chain_ok = False
        if dxy == 0.0 and not np.array_equal(
                np.sort(x.view("f8,f8"), axis=0), np.sort(y.view("f8,f8"), axis=0)):
            identity_ok = False
    # zero exactly on multiset-equal patterns
    for _ in range(1000):
        x = gen.random((int(gen.integers(1, 9)), 2))
        if dbar1(x, x[gen.permutation(len(x))], UNIT) != 0.0:
            identity_ok = False
    ok = sym_exact and worst_triangle < 1e-12 and chain_ok and identity_ok
    _report(4, "dbar1 metric axioms + chain over 1e5 triples", ok,
            f"symmetry_exact={sym_exact} max_triangle_slack={worst_triangle:.2e} "
            f"chain={chain_ok} identity={identity_ok}")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_lipschitz_suites():
    gen = np.random.default_rng(55)
    center = (0.5, 0.5)
    kernels = [KernelSpec("half_interpoint", 2, 1.0),
               KernelSpec("minball_diameter", 2, 1.0)]
    worst_u = {k.kind: 0.0 for k in kernels}
    worst_nn = 0.0
    for _ in range(10_000):
        x = random_pattern(gen, 10)
        y = random_pattern(gen, 10)
        d = dbar1(x, y, UNIT)
        if d == 0.0:
            continue
        for kernel in kernels:
            gap = abs(ustat(x, kernel, center) - ustat(y, kernel, center))
            worst_u[kernel.kind] = max(worst_u[kernel.kind], gap / d)
        nn_gap = abs(avg_nn_statistic(x, 1.0, 1.0, UNIT)
                     - avg_nn_statistic(y, 1.0, 1.0, UNIT))
        worst_nn = max(worst_nn, nn_gap / d)
    ok = (all(v <= 1.0 + 1e-9 for v in worst_u.values())
          and worst_nn <= 7.0 + 1e-9)
    _report(5, "U-statistic ratio <= 1, avg-NN ratio <= 7 over 1e4 pairs", ok,
            f"u={worst_u} nn={worst_nn:.4f}")


# --------------------------------------------------------------- criterion 6

def _lipschitz_family(dim):
    window_center = np.full(dim, 0.5)
    half = KernelSpec("half_interpoint", 2, 1.0)
    spec = GroundMetricSpec(cap=1.0)
    return {
        "inverse_count": lambda p: 1.0 / (len(p) + 1),
        "half_interpoint_ustat": lambda p: ustat(p, half, window_center),
        "avg_nn_over_7": lambda p: avg_nn_statistic(p, 1.0, 1.0, spec) / 7.0,
    }


def test_criterion_06_bernoulli_poisson_bound_consistency():
    t0 = time.perf_counter()
    n_samples = 10_000
    line = Window((0.0,), (1.0,))
    family = _lipschitz_family(1)
    failures = []
    for cfg_idx, (n, p) in enumerate(((200, 0.05), (1000, 0.01))):
        bound = bernoulli_poisson_bound(n, p)
        rng = RngStream(66, stream_index=cfg_idx)
        bern_vals = {name: np.empty(n_samples) for name in family}
        po_vals = {name: np.empty(n_samples) for name in family}
        for r in range(n_samples):
            bern = sample_bernoulli_process(n, p, rng.substream(2 * r))
            po = sample_poisson_homogeneous(n * p, line, rng.substream(2 * r + 1))
            for name, f in family.items():
                bern_vals[name][r] = f(bern)
                po_vals[name][r] = f(po)
        for name in family:
            diff = abs(bern_vals[name].mean() - po_vals[name].mean())
            se = math.sqrt(bern_vals[name].var(ddof=1) / n_samples
                           + po_vals[name].var(ddof=1) / n_samples)
            if diff > bound + 3 * se:
                failures.append(
                    f"({n},{p}) {name}: diff={diff:.4f} bound={bound:.4f} se={se:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.0f}s > 120s")
    _report(6, "Bernoulli-to-Poisson Monte Carlo within theorem bound",
            not failures, f"elapsed={elapsed:.0f}s {failures}")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_iid_points_sandwich():
    t0 = time.perf_counter()
    mu = CountDistribution.binomial(3, 0.5)
    nu = CountDistribution.binomial(3, 0.8)
    dw = 0.25  # transport from U[0,1]^2 to U[0,1/2]x[0,1]: mean shift x/2
    res = iid_bounds(mu, nu, dw)
    n_coll = 500
    rng = RngStream(77)
    xs_sampler = uniform_sampler(UNIT_SQUARE)
    ys_sampler = uniform_sampler(Window((0.0, 0.0), (0.5, 1.0)))
    ps = [sample_iid_process(mu, xs_sampler, rng.substream(2 * i))
          for i in range(n_coll)]
    qs = [sample_iid_process(nu, ys_sampler, rng.substream(2 * i + 1))
          for i in range(n_coll)]
    est = dbar2_empirical(ps, qs, MetricParams(1.0, 1.0), UNIT)
    elapsed = time.perf_counter() - t0
    ok = (res.lower - 0.05 <= est <= res.upper + 0.05) and elapsed < 60.0
    _report(7, "empirical dbar2 for i.i.d.-points processes inside bounds", ok,
            f"est={est:.4f} in [{res.lower:.4f}-0.05, {res.upper:.4f}+0.05] "
            f"elapsed={elapsed:.0f}s")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_counterexample_integrals():
    failures = []
    for lam in (10.0, 100.0, 1000.0):
        d1_val, d2_val, lower = counterexample_integrals(lam)
        if not d1_val >= lower:
            failures.append(f"lam={lam}: {d1_val} < lower {lower}")
        if not d2_val <= d1_val:
            failures.append(f"lam={lam}: delta2 {d2_val} > delta1 {d1_val}")
    ratios = {}
    for lam in (1e2, 1e3, 1e4):
        d1_val, _, _ = counterexample_integrals(lam)
        ratios[lam] = d1_val * lam / math.log(lam)
        if not 0.2 <= ratios[lam] <= 1.5:
            failures.append(f"lam={lam}: ratio {ratios[lam]}")
    _report(8, "log-factor counterexample inequalities", not failures,
            f"ratios={ {k: round(v, 3) for k, v in ratios.items()} } {failures}")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_immigration_death_marginal():
    lam, t, n0 = 20.0, 0.7, 10
    n_rep = 10_000
    gen = np.random.default_rng(99)
    xi = gen.random((n0, 2))
    rng = RngStream(909)
    counts = np.array([
        len(evolve_immigration_death(xi, lam, UNIT_SQUARE, t, rng.substream(i)))
        for i in range(n_rep)
    ], dtype=float)
    q = math.exp(-t)
    target = lam * (1 - q) + n0 * q
    se_mean = math.sqrt((lam * (1 - q) + n0 * q * (1 - q)) / n_rep)
    transient_ok = abs(counts.mean() - target) < 3 * se_mean

    counts_ss = np.array([
        len(evolve_immigration_death(xi, lam, UNIT_SQUARE, 50.0,
                                     rng.substream(n_rep + i)))
        for i in range(n_rep)
    ], dtype=float)
    se_ss = math.sqrt(lam / n_rep)
    mean_ok = abs(counts_ss.mean() - lam) < 3 * se_ss
    mu4 = lam * (1 + 3 * lam)
    se_var = math.sqrt((mu4 - lam**2) / n_rep)
    var_ok = abs(counts_ss.var(ddof=1) - lam) < 3 * se_var
    ok = transient_ok and mean_ok and var_ok
    _report(9, "immigration-death transient and steady-state moments", ok,
            f"transient mean {counts.mean():.3f} vs {target:.3f}; steady "
            f"mean {counts_ss.mean():.3f} var {counts_ss.var(ddof=1):.3f} vs {lam}")


# -------------------------------------------------------------- criterion 10

def _size_replicate(seed):
    stream = RngStream(31337).substream(seed)
    data = [sample_poisson_homogeneous(15.0, UNIT_SQUARE,
                                       stream.substream(0).substream(i))
            for i in range(8)]
    res = homogeneity_test(data, lam=15.0, n_null=99, alpha=0.05,
                           rng=stream.substream(1))
    return res.reject


def test_criterion_10_exact_size_under_null():
    n_tests = 1000
    workers = min(worker_count(), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rejects = list(pool.map(_size_replicate, range(n_tests),
                                    chunksize=25))
    else:
        rejects = [_size_replicate(i) for i in range(n_tests)]
    rate = sum(rejects) / n_tests
    ok = abs(rate - 0.05) <= 0.02
    _report(10, "null rejection rate 0.05 +/- 0.02 over 1000 tests", ok,
            f"rate={rate:.3f}")
