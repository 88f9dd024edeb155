"""Property tests of the batched enclosing-circle kernel against Welzl."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmetrics.geometry import min_enclosing_ball, subset_enclosing_diameters

coordinate = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
    # a coarse grid makes repeated, collinear and cocircular points likely
    st.integers(-2, 2).map(lambda k: k / 2.0),
)
point = st.tuples(coordinate, coordinate)


@st.composite
def planar_sets(draw):
    base = draw(st.lists(point, min_size=1, max_size=7))
    n = draw(st.integers(3, 7))
    # drawing with replacement from a small base repeats points
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    size = draw(st.integers(3, min(5, n)))
    return np.array([base[i] for i in picks]), size


@settings(max_examples=300, deadline=None)
@given(planar_sets())
def test_batched_diameters_equal_welzl_and_enclose(case):
    pts, size = case
    got = subset_enclosing_diameters(pts, size)
    for value, idx in zip(got, itertools.combinations(range(len(pts)), size)):
        sub = pts[list(idx)]
        ball = min_enclosing_ball(sub)
        # both accept a circle that misses a point by the containment slack
        # (1e-12 relative on the radius plus 1e-12 times the points'
        # largest coordinate range, at most 2 here) and then grow it, so
        # they can differ by that slack on the diameter
        assert math.isclose(value, 2.0 * ball.radius, rel_tol=2e-12, abs_tol=4e-12)
        # every point lies in a circle of that diameter around Welzl's
        # centre, and no enclosing circle is narrower than the set
        reach = np.linalg.norm(sub - ball.center, axis=1).max()
        assert reach <= value / 2.0 * (1 + 1e-12) + 1e-12
        widest = max(np.linalg.norm(p - q) for p, q in itertools.combinations(sub, 2))
        assert value >= widest * (1 - 1e-15)
