"""Property test: the bound-settled comparison of dbar2 with a value is the
sign of the exact difference, for values at and around the exact dbar2."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmetrics.metrics import MetricParams, _dbar2_compare, _Stack, dbar2_empirical

coordinate = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
    # a coarse grid makes repeated points and tied matchings likely
    st.integers(0, 4).map(lambda k: k / 4.0),
)
general = st.lists(st.tuples(coordinate, coordinate), max_size=6)
pattern = st.one_of(st.just([]), st.lists(st.tuples(coordinate, coordinate),
                                           min_size=1, max_size=1), general).map(
    lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


@st.composite
def collection_pairs(draw):
    size = draw(st.integers(2, 6))
    side = st.lists(pattern, min_size=size, max_size=size)
    return draw(side), draw(side)


params = st.builds(MetricParams, order=st.sampled_from([1.0, 2.0]),
                   cutoff=st.sampled_from([0.3, 1.0]))
# the exact value, its float neighbours, or the exact value scaled by
# 1 + k * 1e-10: |k| <= 20 spans both sides of the 1e-9 settle margin
offsets = st.one_of(st.sampled_from([-1, 0, 1]).map(lambda d: ("next", d)),
                    st.integers(-20, 20).map(lambda k: ("scale", k)))


@settings(max_examples=300, deadline=None)
@given(collection_pairs(), params, st.sampled_from(["dbar1", "d1"]), offsets)
def test_dbar2_compare_is_the_sign_of_the_exact_difference(pair, p, metric, offset):
    ps, qs = pair
    exact = dbar2_empirical(ps, qs, p, None, metric)
    kind, k = offset
    if kind == "next":
        value = np.nextafter(exact, k * np.inf) if k else exact
    else:
        value = exact * (1 + k * 1e-10)
    want = int(exact > value) - int(exact < value)
    assert _dbar2_compare(_Stack(ps), _Stack(qs), value, p, metric) == want
