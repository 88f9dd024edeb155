"""Ground distances on R^D and the geometric primitives built on them.

A point pattern is represented throughout the package as a float ndarray of
shape ``(m, D)``; an empty pattern has ``m == 0``. The ground distance is
the Euclidean distance capped at a cutoff value, which keeps every
point-level distance in ``[0, cap]``.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, check_count, check_real

__all__ = [
    "GroundMetricSpec",
    "Ball",
    "as_pattern",
    "ground_distance",
    "pairwise_ground_distances",
    "min_enclosing_ball",
    "subset_enclosing_diameters",
    "capped_ball_diameter",
    "nn_distances",
]


@dataclass(frozen=True)
class GroundMetricSpec:
    """Capped Euclidean ground distance ``min(|x - y|, cap)``.

    ``theory_mode=True`` enforces ``cap <= 1``, the regime in which the
    pattern metrics built on top are bounded by 1 and all metric-theoretic
    guarantees hold. Every metric uses the patterns' own dimension.
    """

    cap: float = 1.0
    theory_mode: bool = True

    def __post_init__(self):
        check_real("cap", self.cap, above=0)
        if self.theory_mode and self.cap > 1:
            raise ValueError(
                "theory mode requires cap <= 1; construct with theory_mode=False "
                "to use a larger cutoff"
            )


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball given by center and radius."""

    center: np.ndarray
    radius: float


def as_pattern(points, dim=None):
    """Validate and convert a point pattern to a float64 ``(m, D)`` array.

    ``points`` may be an ndarray, a sequence of coordinate sequences, or an
    empty sequence (``dim`` then fixes the dimension; it defaults to 1).
    Duplicated points are allowed; patterns are counted multisets.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        d = int(dim) if dim is not None else (arr.shape[1] if arr.ndim == 2 else 1)
        return np.empty((0, d))
    if arr.ndim == 1:
        # a flat sequence is read as m one-dimensional points
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"pattern must be a (m, D) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("pattern contains non-finite coordinates")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"pattern has dimension {arr.shape[1]}, expected {dim}"
        )
    return arr


def common_dimension(*patterns):
    """Shared coordinate dimension of the given patterns.

    Empty patterns are dimension-agnostic and match anything; if all
    patterns are empty the reported dimension is that of the first.
    """
    dims = {p.shape[1] for p in patterns if len(p) > 0}
    if len(dims) > 1:
        raise DimensionMismatchError(f"patterns mix dimensions {sorted(dims)}")
    if dims:
        return dims.pop()
    return patterns[0].shape[1]


def ground_distance(x, y, spec=GroundMetricSpec()):
    """Capped Euclidean distance ``min(|x - y|, cap)`` between two points."""
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise DimensionMismatchError(
            f"points have dimensions {xa.size} and {ya.size}"
        )
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("points contain non-finite coordinates")
    return min(float(np.linalg.norm(xa - ya)), spec.cap)


def pairwise_ground_distances(xi, eta, spec=GroundMetricSpec()):
    """Matrix of capped Euclidean distances between two patterns."""
    xi = as_pattern(xi)
    eta = as_pattern(eta)
    common_dimension(xi, eta)
    if len(xi) == 0 or len(eta) == 0:
        return np.empty((len(xi), len(eta)))
    return np.minimum(cdist(xi, eta), spec.cap)


def _circle_two(a, b):
    # circle on segment ab as diameter; a, b are (..., 2) arrays
    center = 0.5 * (a + b)
    return center, np.linalg.norm(a - b, axis=-1) / 2.0


def _circle_three(a, b, c):
    # circumcircle of abc, (..., 2) arrays; nan where the triple is collinear
    # or so nearly collinear that the circle overflows
    ax, ay = a[..., 0], a[..., 1]
    bx, by = b[..., 0], b[..., 1]
    cx, cy = c[..., 0], c[..., 1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    d = np.where(d == 0.0, np.nan, d)
    with np.errstate(over="ignore", invalid="ignore"):
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        center = np.stack([ux, uy], axis=-1)
        radius = np.linalg.norm(center - a, axis=-1)
    bad = ~np.isfinite(radius)
    return np.where(bad[..., None], np.nan, center), np.where(bad, np.nan, radius)


# containment slack for rounding, relative to the radius and to the spread
_SLACK = 1e-12


def _spread(pts, axis=0):
    """Largest coordinate range of a point set (over ``axis``)."""
    return np.ptp(pts, axis=axis).max(axis=-1)


def _inside(dist, radius, spread):
    # the slack scales with the points, so a tiny cluster is not "inside"
    # every circle drawn around one of its points
    return dist <= radius * (1 + _SLACK) + _SLACK * spread


def _first_outside(pts, start, stop, center, radius, spread):
    """Index of the first of ``pts[start:stop]`` outside the circle, or None."""
    dist = np.linalg.norm(pts[start:stop] - center, axis=1)
    out = np.flatnonzero(~_inside(dist, radius, spread))
    return start + int(out[0]) if len(out) else None


def _circle_through(a, b, c):
    center, radius = _circle_three(a, b, c)
    if np.isnan(radius):
        # collinear support: the widest pair encloses the third point
        center, radius = max((_circle_two(p, q) for p, q in ((a, b), (a, c), (b, c))),
                             key=lambda circle: circle[1])
    return center, float(radius)


# coordinate magnitudes outside [2**-_SCALE_LIMIT, 2**_SCALE_LIMIT] are rescaled
_SCALE_LIMIT = 300


def _rescale_exponent(pts):
    """Exponent ``e`` that brings ``pts * 2**-e`` to magnitudes about 1.

    The circle formulas square coordinates, and the circumcentre multiplies
    three of them, so coordinates beyond about 2**340 overflow and below
    about 2**-340 underflow. Scaling by a power of two is exact, so the
    scaled result, scaled back, is what exact-range arithmetic would give.
    Returns 0, and so leaves the input alone, when the largest magnitude
    lies within ``2**±_SCALE_LIMIT`` or every coordinate is 0.
    """
    top = float(np.max(np.abs(pts))) if pts.size else 0.0
    if top == 0.0 or 2.0 ** -_SCALE_LIMIT <= top <= 2.0 ** _SCALE_LIMIT:
        return 0
    return math.frexp(top)[1]


def min_enclosing_ball(points):
    """Smallest enclosing ball of a planar point set (Welzl's algorithm).

    Only ``D == 2`` is supported. The points are visited in a shuffled order
    with a fixed seed, so repeated calls on the same input return the
    identical ball. The algorithm runs as three nested loops (point ``i``,
    then ``j`` and ``k`` on the boundary) with no recursion, so its depth
    does not grow with the number of points. Coordinates of magnitude
    beyond ``2**±300`` are first scaled by an exact power of two, so that
    no square overflows or underflows.
    """
    pts = as_pattern(points)
    if len(pts) == 0:
        raise ValueError("min_enclosing_ball requires at least one point")
    if pts.shape[1] != 2:
        raise ValueError(
            f"min_enclosing_ball supports dimension 2 only, got {pts.shape[1]}"
        )
    if len(pts) == 1:
        return Ball(pts[0].copy(), 0.0)
    scale = _rescale_exponent(pts)
    if scale:
        ball = min_enclosing_ball(np.ldexp(pts, -scale))
        return Ball(np.ldexp(ball.center, scale), math.ldexp(ball.radius, scale))
    order = list(range(len(pts)))
    random.Random(0x5EB).shuffle(order)
    shuffled = pts[order]
    spread = float(_spread(pts))
    center, radius = shuffled[0], 0.0
    i = _first_outside(shuffled, 1, len(shuffled), center, radius, spread)
    while i is not None:
        # ball of shuffled[:i + 1] with point i on its boundary
        center, radius = shuffled[i], 0.0
        j = _first_outside(shuffled, 0, i, center, radius, spread)
        while j is not None:
            # ... and with point j on its boundary too
            center, radius = _circle_two(shuffled[i], shuffled[j])
            k = _first_outside(shuffled, 0, j, center, radius, spread)
            while k is not None:
                center, radius = _circle_through(shuffled[i], shuffled[j], shuffled[k])
                k = _first_outside(shuffled, k + 1, j, center, radius, spread)
            j = _first_outside(shuffled, j + 1, i, center, radius, spread)
        i = _first_outside(shuffled, i + 1, len(shuffled), center, radius, spread)
    # guard against accumulated tolerance slack: grow to cover every input
    reach = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return Ball(np.array(center, dtype=float), max(float(radius), reach))


# distance cells (subset x candidate circle x point) evaluated per chunk
_SUBSET_CHUNK_CELLS = 1 << 18


def subset_enclosing_diameters(points, size):
    """Enclosing-circle diameter of every ``size``-subset of a planar pattern.

    Entry ``t`` belongs to the ``t``-th subset of
    ``itertools.combinations(range(len(points)), size)``; ``size >= 2``.
    The smallest enclosing circle of a finite set is one of its candidate
    circles (each pair as a diameter, the circumcircle of each
    non-collinear triple), so every subset takes the smallest candidate
    that contains all its points, grown to reach its farthest point as
    :func:`min_enclosing_ball` does; the values equal Welzl's up to
    rounding. A subset that no candidate contains falls back to
    :func:`min_enclosing_ball`. Subsets are evaluated in chunks of a fixed
    number of distance cells, so working memory does not grow with the
    number of subsets. Extreme coordinates are scaled by a power of two as
    in :func:`min_enclosing_ball`.
    """
    pts = as_pattern(points)
    if pts.shape[1] != 2:
        raise ValueError(
            f"subset_enclosing_diameters supports dimension 2 only, got {pts.shape[1]}"
        )
    size = check_count("size", size, at_least=2)
    scale = _rescale_exponent(pts)
    if scale:
        return np.ldexp(subset_enclosing_diameters(np.ldexp(pts, -scale), size), scale)
    total = math.comb(len(pts), size)
    pairs = np.array(list(itertools.combinations(range(size), 2)), dtype=np.intp).T
    triples = np.array(list(itertools.combinations(range(size), 3)),
                       dtype=np.intp).reshape(-1, 3).T
    n_candidates = pairs.shape[1] + triples.shape[1]
    chunk = max(1, _SUBSET_CHUNK_CELLS // (n_candidates * size))
    subsets = itertools.combinations(range(len(pts)), size)
    out = np.empty(total)
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        idx = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, count)),
                          dtype=np.intp, count=count * size).reshape(count, size)
        sub = pts[idx]
        c2, r2 = _circle_two(sub[:, pairs[0]], sub[:, pairs[1]])
        c3, r3 = _circle_three(*(sub[:, t] for t in triples))
        centers = np.concatenate([c2, c3], axis=1)
        radii = np.concatenate([r2, r3], axis=1)
        dist = np.linalg.norm(sub[:, None, :, :] - centers[:, :, None, :], axis=-1)
        spread = _spread(sub, axis=1)[:, None, None]
        contains = _inside(dist, radii[..., None], spread).all(axis=2)
        best = np.where(contains, radii, np.inf).argmin(axis=1)
        rows = np.arange(count)
        radius = np.maximum(radii[rows, best], dist[rows, best].max(axis=1))
        for s in np.flatnonzero(~contains[rows, best]):
            radius[s] = min_enclosing_ball(sub[s]).radius
        out[start:start + count] = 2.0 * radius
    return out


def capped_ball_diameter(ball, cap=1.0):
    """Diameter of a ball under the capped metric: ``min(2 * radius, cap)``."""
    return min(2.0 * ball.radius, check_real("cap", cap, above=0))


def nn_distances(pattern, spec=GroundMetricSpec()):
    """Capped nearest-neighbor distance of every point in a pattern.

    Entry ``i`` is ``min over j != i`` of the ground distance from point
    ``i`` to point ``j``; a duplicated point has nearest-neighbor distance
    exactly 0. Requires at least two points.
    """
    pts = as_pattern(pattern)
    if len(pts) < 2:
        raise ValueError("nn_distances requires at least 2 points")
    dmat = cdist(pts, pts)
    np.fill_diagonal(dmat, np.inf)
    return np.minimum(dmat.min(axis=1), spec.cap)
