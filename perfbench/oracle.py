"""Independent reference computations for the benchmark's output checks.

None of these call the ppmetrics metric code: distances come from a padded
square ``linear_sum_assignment`` on ``cdist``, the uniform transportation
value from an assignment on replicated rows and columns, and the minimal
enclosing circles of triples from their closed form.
"""

import itertools
import json
import math
import os

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


def schema_validator(ppm):
    """Validator for the result-document schema shipped with the package."""
    import jsonschema

    path = os.path.join(os.path.dirname(ppm.__file__), "schemas",
                        "result_document.schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft202012Validator(schema)


def write_pattern_file(path, patterns):
    """Blank-line separated pattern text, 17 significant digits per float.

    Written here rather than by ``ppmetrics.fileio`` so that the inputs do
    not depend on the code under test.
    """
    blocks = []
    for pat in patterns:
        if len(pat) == 0:
            blocks.append("# empty")
        else:
            blocks.append("\n".join(" ".join(format(v, ".17g") for v in row) for row in pat))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")


def pc_distance(a, b, p, c):
    """Order-p cutoff-c matching distance by a padded n x n assignment."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    m, n = len(small), len(big)
    if n == 0:
        return 0.0
    cost = np.full((n, n), c ** p)
    if m:
        cost[:m] = np.minimum(cdist(small, big), c) ** p
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) ** (1.0 / p) / n


def _distance_matrix(ps, qs, c):
    return np.array([[pc_distance(a, b, 1.0, c) for b in qs] for a in ps])


def homogeneity_statistic(ppm, patterns, cutoff, seed):
    """Observed statistic of the CLI test: dbar2 of the data against its
    reference collection, redrawn from the documented substreams."""
    n = len(patterns)
    lam = sum(len(p) for p in patterns) / n
    stream = ppm.processes.RngStream(seed).substream(0)
    reference = [ppm.processes.sample_poisson_homogeneous(
        lam, ppm.processes.UNIT_SQUARE, stream.substream(i)) for i in range(n)]
    dmat = _distance_matrix(patterns, reference, cutoff)
    rows, cols = linear_sum_assignment(dmat)
    return float(dmat[rows, cols].sum()) / n


def uniform_transport(ps, qs, c):
    """Uniform-weight transport value as an assignment on lcm-replicated sides."""
    dmat = _distance_matrix(ps, qs, c)
    n, m = dmat.shape
    size = n * m // math.gcd(n, m)
    big = np.repeat(np.repeat(dmat, size // n, axis=0), size // m, axis=1)
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum()) / size


def matching_problems(xi, eta, pairs, value, p, c):
    """Check that ``pairs`` is a matching of xi and eta whose cost is ``value``."""
    left = sorted(i for i, _ in pairs if i is not None)
    right = sorted(j for _, j in pairs if j is not None)
    if left != list(range(len(xi))) or right != list(range(len(eta))):
        return ["matching_details pairs do not cover each point exactly once"]
    matched = [(i, j) for i, j in pairs if i is not None and j is not None]
    if len(matched) != min(len(xi), len(eta)):
        return [f"matching_details matched {len(matched)} pairs"]
    cost = sum(min(float(np.linalg.norm(xi[i] - eta[j])), c) ** p for i, j in matched)
    cost += (len(pairs) - len(matched)) * c ** p
    n = max(len(xi), len(eta))
    want = cost ** (1.0 / p) / n if n else 0.0
    if not math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-15):
        return [f"matching_details value {value!r}, its pairs cost {want!r}"]
    return []


def minball_ustat(pts, cap):
    """Arity-3 minball U-statistic: mean capped enclosing-circle diameter / 3."""
    tri = pts[np.array(list(itertools.combinations(range(len(pts)), 3)))]
    a = np.linalg.norm(tri[:, 1] - tri[:, 2], axis=1)
    b = np.linalg.norm(tri[:, 0] - tri[:, 2], axis=1)
    c = np.linalg.norm(tri[:, 0] - tri[:, 1], axis=1)
    sides = np.sort(np.stack([a, b, c], axis=1), axis=1)
    longest = sides[:, 2]
    obtuse = longest ** 2 >= sides[:, 0] ** 2 + sides[:, 1] ** 2
    u, v = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    twice_area = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = a * b * c / twice_area
    diam = np.where(obtuse, longest, circum)
    return math.fsum(np.minimum(diam, cap).tolist()) / 3 / len(diam)


def avg_nn(pts, cap):
    """Mean capped nearest-neighbour distance by brute force."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(np.mean(np.minimum(dist.min(axis=1), cap)))
