"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: exhaustive enumeration over
permutations, injections, transportation-polytope vertices, and candidate
enclosing circles. The oracles never share code with the implementation
paths they check. scipy's ``linear_sum_assignment`` lives here only, as the
reference for the package's compiled matching kernel.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


def brute_force_assignment(cost):
    """Exhaustive minimum over all n! permutations of a square matrix."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    best = math.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = math.fsum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best = total
            best_perm = perm
    return best, best_perm


def brute_force_matching(costs, fill):
    """Cheapest injection of the rows of an m x n matrix (m <= n) into its
    columns, each free column costing ``fill``: ``fsum`` of the picked
    entries plus ``(n - m) * fill``, minimised over all n!/(n-m)! of them."""
    m, n = costs.shape
    best = min(math.fsum(costs[i, j] for i, j in enumerate(cols))
               for cols in itertools.permutations(range(n), m))
    return best + (n - m) * fill


def lsa_matching(costs, fill):
    """``brute_force_matching`` through scipy's ``linear_sum_assignment``."""
    m, n = costs.shape
    rows, cols = linear_sum_assignment(costs)
    return math.fsum(costs[rows, cols].tolist()) + (n - m) * fill


def lsa_pair_distance(a, b, p, c, cap=None):
    """The ``(p, c)`` pattern distance as ppmetrics computed it with scipy:
    ``cdist``, the caps, numpy's ``power``, ``linear_sum_assignment`` on the
    smaller pattern's rows, and ``fsum`` of the picked costs."""
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    costs = cdist(a, b) if m else np.empty((0, n))
    if cap is not None:
        np.minimum(costs, cap, out=costs)
    np.minimum(costs, c, out=costs)
    if p != 1.0:
        np.power(costs, p, out=costs)
    return lsa_matching(costs, c ** p) ** (1.0 / p) / max(n, 1)


def brute_force_transportation(source, target, cost):
    """Minimum cost over all vertices of the transportation polytope.

    Enumerates every potential basis (subsets of k + l - 1 cells), solves
    the reduced marginal equations, and keeps feasible solutions. Only
    sensible for tiny instances.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    cost = np.asarray(cost, dtype=float)
    k, l = cost.shape
    nbasis = k + l - 1
    # incidence of cell (i, j): row-constraint i and column-constraint k + j,
    # with the last (redundant) column constraint dropped
    a_full = np.zeros((k + l - 1, k * l))
    for i in range(k):
        for j in range(l):
            a_full[i, i * l + j] = 1.0
            if j < l - 1:
                a_full[k + j, i * l + j] = 1.0
    b = np.concatenate([source, target[:-1]])
    cells = np.array(list(itertools.combinations(range(k * l), nbasis)))
    mats = a_full[:, cells].transpose(1, 0, 2)
    dets = np.linalg.det(mats)
    usable = np.abs(dets) > 0.5  # incidence bases are unimodular
    rhs = np.broadcast_to(b[:, None], (int(usable.sum()), nbasis, 1)).copy()
    flows = np.linalg.solve(mats[usable], rhs)[..., 0]
    feasible = (flows > -1e-9).all(axis=1)
    costs_per_vertex = (cost.ravel()[cells[usable]] * flows).sum(axis=1)
    return float(costs_per_vertex[feasible].min())


def _as_points(arr):
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 1)
    return arr.reshape(len(arr), -1)


def brute_force_dbar1_pc(xi, eta, p=1.0, c=1.0, cap=None):
    """(p, c) matching distance by enumerating all injections."""
    xi = _as_points(xi)
    eta = _as_points(eta)
    if len(xi) > len(eta):
        xi, eta = eta, xi
    m, n = len(xi), len(eta)
    if n == 0:
        return 0.0
    best = math.inf
    for targets in itertools.permutations(range(n), m):
        total = math.fsum(
            min(c, _ground(xi[i], eta[j], cap)) ** p
            for i, j in zip(range(m), targets)
        )
        best = min(best, total)
    if m == 0:
        best = 0.0
    return (best + (n - m) * c ** p) ** (1.0 / p) / n


def _ground(x, y, cap):
    d = float(np.linalg.norm(x - y))
    return d if cap is None else min(d, cap)


def brute_force_dbar1(xi, eta, cap=1.0):
    """Plain dbar1 via the injection enumeration (p = 1, c = cap)."""
    return brute_force_dbar1_pc(xi, eta, p=1.0, c=cap, cap=cap)


def brute_force_d1(xi, eta, cap=1.0):
    """Classical d1: permutation enumeration, 1 across cardinalities."""
    if len(xi) != len(eta):
        return 1.0
    if len(xi) == 0:
        return 0.0
    return brute_force_dbar1(xi, eta, cap)


def enclosing_circle_oracle(points):
    """Smallest enclosing circle by checking all pair/triple candidates."""
    pts = np.asarray(points, dtype=float)
    best_r = math.inf
    best_c = None

    def consider(center, radius):
        nonlocal best_r, best_c
        if radius < best_r and np.all(
            np.linalg.norm(pts - center, axis=1) <= radius + 1e-9
        ):
            best_r = radius
            best_c = center

    for i, j in itertools.combinations(range(len(pts)), 2):
        center = 0.5 * (pts[i] + pts[j])
        consider(center, float(np.linalg.norm(pts[i] - center)))
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        ax, ay = pts[i]
        bx, by = pts[j]
        cx, cy = pts[k]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0.0:
            continue
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        center = np.array([ux, uy])
        consider(center, float(np.linalg.norm(pts[i] - center)))
    if len(pts) == 1:
        return pts[0], 0.0
    return best_c, best_r


def random_pattern(gen, max_points, dim=2, allow_empty=True):
    """Uniform random pattern for property sweeps."""
    low = 0 if allow_empty else 1
    m = int(gen.integers(low, max_points + 1))
    return gen.random((m, dim))


def pooled_chisquare_counts(counts_a, counts_b, min_expected=5):
    """Two-sample chi-square statistic and dof on pooled count histograms."""
    kmax = int(max(counts_a.max(), counts_b.max()))
    bins = np.arange(kmax + 2)
    ha, _ = np.histogram(counts_a, bins=bins)
    hb, _ = np.histogram(counts_b, bins=bins)
    # pool sparse cells from the right until every expected count is large
    table = np.stack([ha, hb]).astype(float)
    pooled = []
    acc = np.zeros(2)
    for col in table.T:
        acc += col
        if acc.sum() >= 2 * min_expected:
            pooled.append(acc.copy())
            acc[:] = 0
    if acc.sum() > 0 and pooled:
        pooled[-1] += acc
    table = np.stack(pooled).T
    return table
