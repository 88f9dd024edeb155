"""Exact solvers for the rectangular assignment problem and the discrete
transportation problem.

Both solvers are deterministic and exact (up to floating-point summation).
``min_cost_matching`` charges a constant for each unmatched column of an m
x n cost matrix and solves the rest in the package's compiled matching
kernel (``_kernel.c``, loaded by :mod:`ppmetrics._kernel`): a C port of
scipy's O(m^2 n) shortest-augmenting-path solver (Crouse 2016), warm-started
by the row reduction of Jonker & Volgenant (1987), whose picked entries are
summed exactly rounded, as ``math.fsum`` does. The same kernel solves every
pattern pair of the metrics. ``solve_assignment`` is its validated square
form.
``solve_transportation`` solves the Kantorovich primal in one pass of the
HiGHS dual simplex (Huangfu & Hall 2018), with presolve off, and returns its
basic solution clipped at 0: the marginals hold within HiGHS's primal
feasibility tolerance of 1e-10, and nothing re-fits them afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from . import _kernel

__all__ = [
    "AssignmentResult",
    "TransportPlan",
    "min_cost_matching",
    "solve_assignment",
    "solve_transportation",
    "MAX_TRANSPORT_SIDE",
]

# dense transportation instances beyond this side length are rejected
MAX_TRANSPORT_SIDE = 500


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal bijection rows -> columns and its total cost.

    ``permutation[i]`` is the column assigned to row ``i`` (0-based).
    """

    permutation: np.ndarray
    total_cost: float


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling matrix with prescribed marginals and its cost."""

    plan: np.ndarray
    total_cost: float


def _validate_costs(cost, square=False):
    arr = np.asarray(cost, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"cost must be a 2-d matrix, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("cost matrix contains NaN or infinite entries")
    if (arr < 0).any():
        raise ValueError("cost matrix contains negative entries")
    return arr


def min_cost_matching(costs, fill):
    """Cheapest matching of every row of an m x n cost matrix, m <= n.

    Each row gets its own column and each of the ``n - m`` columns left
    over costs ``fill``. Returns ``(total, rows, cols)`` with ``rows =
    arange(m)``, ``total = fsum(costs[rows, cols]) + (n - m) * fill``, the
    optimum of the square problem padded with ``n - m`` rows of ``fill``.
    ``costs`` must be a finite matrix and ``fill`` a finite number. The
    package's own callers hold validated matrices and call the kernel
    directly.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] > costs.shape[1]:
        raise ValueError(f"cost must be an m x n matrix with m <= n, got shape "
                         f"{costs.shape}")
    if not (np.isfinite(costs).all() and math.isfinite(fill)):
        raise ValueError("cost matrix or fill contains NaN or infinite entries")
    total, cols = _kernel.min_cost_matching(costs, fill)
    return total, np.arange(costs.shape[0]), cols


def solve_assignment(cost):
    """Minimum-cost perfect matching of a square nonnegative cost matrix.

    Returns the optimal permutation and the exact total cost (compensated
    summation of the selected entries). Ties between optimal permutations
    are broken deterministically by the solver's scanning order and never
    affect the total cost.
    """
    arr = _validate_costs(cost, square=True)
    total, perm = _kernel.min_cost_matching(arr, 0.0)
    return AssignmentResult(permutation=perm, total_cost=total)


def _check_weights(w, name):
    """Raise unless the 1-d float array ``w`` is a probability vector:
    entries in [0, 1], none NaN, that sum to 1 within 1e-10."""
    if not ((w >= 0) & (w <= 1 + 1e-10)).all():
        raise ValueError(f"{name} must lie in [0, 1]")
    if not abs(math.fsum(w.tolist()) - 1.0) <= 1e-10:
        raise ValueError(f"{name} must sum to 1 within 1e-10")


def _check_transport_side(k, l):
    if max(k, l) > MAX_TRANSPORT_SIDE:
        raise ValueError(
            f"transportation instance {k}x{l} exceeds the supported size "
            f"{MAX_TRANSPORT_SIDE}; split the problem or use the assignment path"
        )


def solve_transportation(source_weights, target_weights, cost):
    """Optimal transport plan between two discrete probability vectors.

    Minimizes ``sum(plan * cost)`` subject to ``plan @ 1 = source_weights``
    and ``plan.T @ 1 = target_weights``; both weight vectors must sum to 1
    within 1e-10. Instances with a side longer than ``MAX_TRANSPORT_SIDE``
    are rejected; every valid instance within it solves.

    The plan is the optimal basic solution of the HiGHS dual simplex, run
    without presolve, with negative rounding clipped to 0. Its row and
    column sums match the weights within 1e-10, the primal feasibility
    tolerance; ``total_cost`` is the compensated sum of ``plan * cost``.
    """
    src = np.asarray(source_weights, dtype=float)
    tgt = np.asarray(target_weights, dtype=float)
    arr = _validate_costs(cost)
    if src.ndim != 1 or tgt.ndim != 1:
        raise ValueError("weights must be 1-d vectors")
    if arr.shape != (src.size, tgt.size):
        raise ValueError(
            f"cost shape {arr.shape} does not match weights ({src.size}, {tgt.size})"
        )
    _check_weights(src, "source weights")
    _check_weights(tgt, "target weights")
    k, l = arr.shape
    _check_transport_side(k, l)

    # equality constraints: k row sums then l column sums; any one of them
    # is implied by the others, which the simplex tolerates
    row_idx = np.repeat(np.arange(k), l)
    col_idx = np.tile(np.arange(l), k) + k
    var_idx = np.arange(k * l)
    a_eq = coo_matrix(
        (np.ones(2 * k * l),
         (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx]))),
        shape=(k + l, k * l),
    )
    b_eq = np.concatenate([src, tgt])
    res = linprog(
        arr.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        # with weights that span about 1e-22 to 1 (truncated Poisson laws),
        # presolve trips on the redundant row sum and reports the problem
        # infeasible
        options={
            "presolve": False,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    plan = np.maximum(res.x.reshape(k, l), 0.0)
    total = math.fsum((plan * arr).ravel().tolist())
    return TransportPlan(plan=plan, total_cost=total)
