import itertools
import math

import numpy as np
import pytest

from ppmetrics import geometry
from ppmetrics.errors import DimensionMismatchError
from ppmetrics.geometry import (
    Ball,
    GroundMetricSpec,
    as_pattern,
    capped_ball_diameter,
    ground_distance,
    min_enclosing_ball,
    nn_distances,
    pairwise_ground_distances,
    subset_enclosing_diameters,
)

from oracles import enclosing_circle_oracle

UNIT = GroundMetricSpec(cap=1.0)


def test_ground_distance_identity():
    assert ground_distance([0.3, 0.7], [0.3, 0.7], UNIT) == 0.0


def test_ground_distance_caps():
    assert ground_distance([0.0, 0.0], [3.0, 4.0], UNIT) == 1.0


def test_ground_distance_hand_value():
    assert abs(ground_distance([0.0, 0.0], [0.3, 0.4], UNIT) - 0.5) < 1e-15


def test_ground_distance_rejects_mismatch_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        ground_distance([0.0], [0.0, 0.0], UNIT)
    with pytest.raises(ValueError):
        ground_distance([np.nan, 0.0], [0.0, 0.0], UNIT)


def test_spec_validation():
    with pytest.raises(ValueError):
        GroundMetricSpec(cap=0.0)
    with pytest.raises(ValueError):
        GroundMetricSpec(cap=2.0)  # theory mode default
    GroundMetricSpec(cap=2.0, theory_mode=False)


def test_capped_triangle_inequality_bulk():
    # d0(x, z) <= d0(x, y) + d0(y, z) over many random planar triples
    gen = np.random.default_rng(31)
    pts = gen.random((100_000, 3, 2)) * 3.0
    for cap in (1.0, 0.25):
        dxy = np.minimum(np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1), cap)
        dyz = np.minimum(np.linalg.norm(pts[:, 1] - pts[:, 2], axis=1), cap)
        dxz = np.minimum(np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1), cap)
        assert (dxz <= dxy + dyz + 1e-12).all()


def test_pairwise_matrix_matches_scalar():
    gen = np.random.default_rng(5)
    a = gen.random((4, 2)) * 2
    b = gen.random((6, 2)) * 2
    mat = pairwise_ground_distances(a, b, UNIT)
    for i in range(4):
        for j in range(6):
            assert math.isclose(mat[i, j], ground_distance(a[i], b[j], UNIT),
                                rel_tol=1e-12, abs_tol=1e-12)
    # the matrix route itself is exactly symmetric
    assert np.array_equal(mat, pairwise_ground_distances(b, a, UNIT).T)


def test_single_point_ball():
    ball = min_enclosing_ball([[0.2, 0.9]])
    assert ball.radius == 0.0
    assert np.allclose(ball.center, [0.2, 0.9])


def test_right_triangle_ball():
    ball = min_enclosing_ball([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(ball.center, [0.5, 0.5], atol=1e-12)
    assert abs(ball.radius - math.sqrt(2) / 2) < 1e-12


def test_ball_matches_exhaustive_oracle():
    gen = np.random.default_rng(77)
    for _ in range(25):
        pts = gen.random((10, 2))
        ball = min_enclosing_ball(pts)
        _, oracle_r = enclosing_circle_oracle(pts)
        assert abs(ball.radius - oracle_r) < 1e-9
        assert (np.linalg.norm(pts - ball.center, axis=1)
                <= ball.radius + 1e-9).all()


def test_ball_invariances():
    gen = np.random.default_rng(78)
    pts = gen.random((12, 2))
    base = min_enclosing_ball(pts)
    shuffled = min_enclosing_ball(pts[gen.permutation(12)])
    assert abs(base.radius - shuffled.radius) < 1e-9
    assert np.linalg.norm(base.center - shuffled.center) < 1e-9
    shift = np.array([3.25, -1.5])
    moved = min_enclosing_ball(pts + shift)
    assert abs(moved.radius - base.radius) < 1e-9
    assert np.linalg.norm(moved.center - (base.center + shift)) < 1e-9


def test_ball_rejects_bad_input():
    with pytest.raises(ValueError):
        min_enclosing_ball(np.empty((0, 2)))
    with pytest.raises(ValueError):
        min_enclosing_ball([[0.0, 0.0, 0.0]])


def test_ball_with_duplicates():
    ball = min_enclosing_ball([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert ball.radius == 0.0


def test_capped_diameter():
    ball = min_enclosing_ball([[0.0, 0.0], [0.9, 0.0]])
    assert abs(capped_ball_diameter(ball, 1.0) - 0.9) < 1e-12
    assert capped_ball_diameter(ball, 0.5) == 0.5


def test_nn_distances_duplicates():
    assert nn_distances([[0.1], [0.1]], GroundMetricSpec()).tolist() == [0.0, 0.0]


def test_nn_distances_hand_value():
    got = nn_distances(np.array([[0.0], [0.3], [1.0]]), GroundMetricSpec())
    assert np.allclose(got, [0.3, 0.3, 0.7], atol=1e-12)


def test_nn_distances_capped_and_relabel_invariant():
    gen = np.random.default_rng(3)
    pts = gen.random((15, 2)) * 4
    spec = GroundMetricSpec(cap=0.6)
    base = nn_distances(pts, spec)
    assert (base <= 0.6).all()
    perm = gen.permutation(15)
    assert abs(base.sum() - nn_distances(pts[perm], spec).sum()) < 1e-12


def test_nn_distances_requires_two_points():
    with pytest.raises(ValueError):
        nn_distances([[0.0, 0.0]])


def test_as_pattern_empty_and_flat():
    assert as_pattern([], dim=2).shape == (0, 2)
    assert as_pattern([0.1, 0.5]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_pattern([[np.inf, 0.0]])


def test_ball_of_5000_points_needs_no_recursion():
    # a recursion per point would pass Python's recursion limit here
    pts = np.random.default_rng(79).random((5000, 2))
    ball = min_enclosing_ball(pts)
    assert (np.linalg.norm(pts - ball.center, axis=1) <= ball.radius + 1e-9).all()
    assert ball.radius < math.sqrt(2) / 2 + 1e-9


def _subset_cases():
    gen = np.random.default_rng(80)
    anchor = np.array([[0.5, 0.5]])
    for size in (3, 4, 5):
        for n in range(3, 10):
            pts = gen.random((n, 2))
            yield "random", pts, size
            dup = pts.copy()
            dup[1] = dup[0]
            dup[-1] = dup[0]
            yield "duplicated", dup, size
            line = pts.copy()
            line[2] = 0.25 * line[0] + 0.75 * line[1]
            yield "collinear", line, size
            yield "all-equal", np.repeat(pts[:1], n, axis=0), size
            grid = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.5],
                             [0.5, 0.5], [0.25, 0.25], [1.0, 1.0], [0.0, 1.0],
                             [0.75, 0.75]])[:n]
            yield "grid", grid, size
        for m in range(size):
            # a short pattern padded with anchor copies, as ustat pads it
            short = gen.random((m, 2))
            yield "padded", np.vstack([short, np.repeat(anchor, size - m, axis=0)]), size


def test_subset_diameters_match_welzl_and_oracle():
    for name, pts, size in _subset_cases():
        got = subset_enclosing_diameters(pts, size)
        subsets = list(itertools.combinations(range(len(pts)), size))
        assert got.shape == (len(subsets),)
        for value, idx in zip(got, subsets):
            sub = pts[list(idx)]
            welzl = 2.0 * min_enclosing_ball(sub).radius
            oracle = 2.0 * enclosing_circle_oracle(sub)[1]
            assert math.isclose(value, welzl, rel_tol=1e-12, abs_tol=1e-15), (name, idx)
            assert math.isclose(value, oracle, rel_tol=1e-12, abs_tol=1e-15), (name, idx)


def test_subset_diameters_chunks_and_edges(monkeypatch):
    pts = np.random.default_rng(81).random((11, 2))
    whole = subset_enclosing_diameters(pts, 4)
    # several chunks give the same values as one
    monkeypatch.setattr(geometry, "_SUBSET_CHUNK_CELLS", 100)
    assert np.array_equal(subset_enclosing_diameters(pts, 4), whole)
    assert np.allclose(subset_enclosing_diameters(pts, 2),
                       [np.linalg.norm(pts[i] - pts[j])
                        for i, j in itertools.combinations(range(11), 2)],
                       rtol=1e-12, atol=0.0)
    assert subset_enclosing_diameters(pts[:2], 3).shape == (0,)
    with pytest.raises(ValueError):
        subset_enclosing_diameters(pts, 1)
    with pytest.raises(ValueError):
        subset_enclosing_diameters(np.zeros((4, 3)), 3)


def test_subset_without_containing_candidate_falls_back(monkeypatch):
    # with every circumcircle withheld, no candidate contains an acute
    # triangle, which must then come from min_enclosing_ball, not inf
    calls = []

    def no_circumcircle(a, b, c):
        return np.full(a.shape, np.nan), np.full(a.shape[:-1], np.nan)

    def reference_ball(points):
        calls.append(np.array(points))
        return Ball(np.zeros(2), 7.0)

    monkeypatch.setattr(geometry, "_circle_three", no_circumcircle)
    monkeypatch.setattr(geometry, "min_enclosing_ball", reference_ball)
    acute = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    obtuse = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
    assert subset_enclosing_diameters(acute, 3).tolist() == [14.0]
    assert len(calls) == 1 and np.array_equal(calls[0], acute)
    assert math.isclose(subset_enclosing_diameters(obtuse, 3)[0], 1.0, rel_tol=1e-15)
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [3e200, 3e-200])
def test_min_enclosing_ball_of_extreme_coordinates(scale):
    ball = min_enclosing_ball([[0.0, 0.0], [scale, 0.0]])
    assert ball.radius == 0.5 * scale
    np.testing.assert_array_equal(ball.center, [0.5 * scale, 0.0])
    diameters = subset_enclosing_diameters([[0.0, 0.0], [scale, 0.0], [0.0, scale / 3]], 2)
    np.testing.assert_allclose(diameters, [scale, scale / 3, scale * math.sqrt(10) / 3],
                               rtol=1e-15)


@pytest.mark.parametrize("exponent", [-700, -400, 400, 700])
def test_enclosing_circles_scale_exactly_by_powers_of_two(exponent):
    # the circumcircle of an acute triangle cubes its coordinates; an exact
    # power-of-two scaling must scale the circles and nothing else
    pts = np.random.default_rng(12).random((7, 2))
    pts[:3] = [[0.0, 0.0], [1.0, 0.0], [0.45, 0.8]]
    factor = 2.0 ** exponent
    ball, scaled = min_enclosing_ball(pts), min_enclosing_ball(pts * factor)
    assert scaled.radius == ball.radius * factor
    np.testing.assert_array_equal(scaled.center, ball.center * factor)
    for size in (2, 3, 4):
        np.testing.assert_array_equal(subset_enclosing_diameters(pts * factor, size),
                                      subset_enclosing_diameters(pts, size) * factor)


def test_ordinary_coordinates_are_not_rescaled():
    for top in (2.0 ** -300, 1e-12, 1.0, 1e6, 2.0 ** 300):
        assert geometry._rescale_exponent(np.array([[0.0, top], [-top, 0.5 * top]])) == 0
    assert geometry._rescale_exponent(np.zeros((3, 2))) == 0
    assert geometry._rescale_exponent(np.array([[0.0, 3e200]])) != 0
    assert geometry._rescale_exponent(np.array([[0.0, 3e-200]])) != 0


@pytest.mark.parametrize("pts, radius", [
    # a spread far below the old absolute slack of 1e-12
    ([[0.0, 0.0], [1e-20, 0.0]], 5e-21),
    ([[0.0, 0.0], [1e-20, 0.0], [0.0, 1e-20]], math.hypot(1e-20, 1e-20) / 2),
    # ... and one offset from the origin, where rounding is about 1e-16
    ([[1.0, 1.0], [1.0 + 1e-13, 1.0]], ((1.0 + 1e-13) - 1.0) / 2),
    ([[1.0, 1.0], [1.0 + 1e-13, 1.0], [1.0, 1.0 + 1e-13]],
     math.hypot((1.0 + 1e-13) - 1.0, (1.0 + 1e-13) - 1.0) / 2),
])
def test_enclosing_circles_of_tiny_clusters(pts, radius):
    # the containment slack scales with the cluster's spread, so a circle
    # drawn around one point does not "contain" the others
    slack = 4 * np.spacing(np.abs(pts).max()) if np.abs(pts).max() > 0.5 else 0.0
    ball = min_enclosing_ball(pts)
    assert abs(ball.radius - radius) <= slack + 1e-12 * radius
    assert np.linalg.norm(np.asarray(pts) - ball.center, axis=1).max() <= ball.radius
    (diameter,) = subset_enclosing_diameters(pts, len(pts))
    assert abs(diameter - 2 * radius) <= 2 * slack + 2e-12 * radius
