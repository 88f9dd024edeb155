"""The compiled matching kernel against exhaustive and scipy oracles, and
the loader that builds it on first import."""

import ctypes
import itertools
import math
import os
import shutil
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import ppmetrics
from ppmetrics import _kernel
from ppmetrics.assignment import min_cost_matching
from ppmetrics.geometry import GroundMetricSpec
from ppmetrics.metrics import MetricParams, _dbar2, _distance_matrix, _pair_matching, \
    _Stack, matching_details, pattern_distance_matrix
from ppmetrics.processes import RngStream, sample_collection, sample_poisson_fkappa, \
    sample_poisson_homogeneous

from oracles import brute_force_matching, lsa_matching, lsa_pair_distance


@st.composite
def matching_problems(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, n))
    grid = draw(st.booleans())
    # small integers tie often, and every sum of them is exact
    entry = (st.integers(0, 3).map(float) if grid
             else st.floats(0.0, 10.0, allow_subnormal=False))
    return draw(arrays(np.float64, (m, n), elements=entry)), draw(entry), grid


@settings(max_examples=400, deadline=None)
@given(matching_problems())
def test_min_cost_matching_is_optimal_and_sums_what_it_picked(problem):
    costs, fill, grid = problem
    m, n = costs.shape
    total, rows, cols = min_cost_matching(costs, fill)
    assert rows.tolist() == list(range(m))
    assert len(set(cols.tolist())) == m and all(0 <= j < n for j in cols.tolist())
    assert total == math.fsum(costs[rows, cols].tolist()) + (n - m) * fill
    for oracle in (brute_force_matching, lsa_matching):
        best = oracle(costs, fill)
        if grid:
            assert total == best
        else:
            # a pairing worse by rounding alone may win a near tie
            assert abs(total - best) <= 1e-12 * max(1.0, best)


def test_min_cost_matching_refuses_more_rows_than_columns():
    with pytest.raises(ValueError, match="m <= n"):
        min_cost_matching(np.zeros((3, 2)), 1.0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_min_cost_matching_refuses_non_finite_entries(bad):
    # a NaN would act as a forbidden edge: [[1, nan], [1, 2]] would total 3
    with pytest.raises(ValueError, match="NaN or infinite"):
        min_cost_matching(np.array([[1.0, bad], [1.0, 2.0]]), 0.0)
    with pytest.raises(ValueError, match="NaN or infinite"):
        min_cost_matching(np.ones((1, 2)), bad)


def test_min_cost_matching_of_negative_entries_equals_the_oracles():
    gen = np.random.default_rng(3)
    for _ in range(50):
        m = int(gen.integers(0, 6))
        costs = gen.normal(size=(m, int(gen.integers(m, 7))))
        total, _, _ = min_cost_matching(costs, -0.5)
        best = lsa_matching(costs, -0.5)
        assert abs(total - best) <= 1e-12 * max(1.0, abs(best))
        assert abs(total - brute_force_matching(costs, -0.5)) <= 1e-12 * max(1.0, abs(best))


@pytest.mark.parametrize("order", [1.0, 2.0])
@pytest.mark.parametrize("cutoff", [0.05, 0.3, 1.0])
def test_pair_values_are_bit_identical_to_scipy_on_random_patterns(order, cutoff):
    gen = np.random.default_rng(int(10 * order + 100 * cutoff))
    shuffle = np.random.default_rng(0)
    params = MetricParams(order, cutoff)
    for lam in (0.5, 3.0, 15.0, 30.0, 60.0):
        for dim in (1, 2, 3):
            spec = GroundMetricSpec(0.2) if gen.random() < 0.3 else None
            cap = None if spec is None else spec.cap
            ps = [gen.random((int(gen.poisson(lam)), dim)) for _ in range(3)]
            qs = [gen.random((int(gen.poisson(lam)), dim)) for _ in range(3)]
            want = np.array([[lsa_pair_distance(a, b, order, cutoff, cap) for b in qs]
                             for a in ps])
            pairs = np.array([[_pair_matching(a, b, order, cutoff, spec)[0] for b in qs]
                              for a in ps])
            assert (pairs == want).all()
            assert (pattern_distance_matrix(ps, qs, params, spec) == want).all()
            # one kernel call on a shuffled list of pairs of one stack: each
            # pair twice, in both orientations, and each pattern against an
            # empty one
            k, empty = len(ps), np.empty((0, dim))
            stack = _Stack([*ps, *qs, empty])
            full = np.full((2 * k + 1, 2 * k + 1), np.nan)
            full[:k, k:2 * k], full[k:2 * k, :k] = want, want.T
            for i in range(2 * k + 1):
                full[i, 2 * k] = lsa_pair_distance(stack[i], empty, order, cutoff, cap)
                full[2 * k, i] = lsa_pair_distance(empty, stack[i], order, cutoff, cap)
            rows, cols = np.nonzero(~np.isnan(full))
            picks = shuffle.permutation(np.tile(np.arange(len(rows)), 2))
            values, _ = _kernel.pairs(stack, stack, rows[picks], cols[picks], order,
                                      cutoff, math.inf if cap is None else cap, False)
            assert (values == full[rows[picks], cols[picks]]).all()


def test_pair_list_indices_are_checked_before_the_call():
    stack = _Stack([np.zeros((2, 2)), np.ones((1, 2))])
    for rows, cols in (([0, 2], [0, 1]), ([0], [-1]), ([0, 1], [0])):
        with pytest.raises(ValueError, match="pattern indices|one length"):
            _kernel.pairs(stack, stack, rows, cols, 1.0, 1.0, math.inf, False)


def test_d1_pairs_nothing_at_unequal_counts_even_against_an_empty_pattern():
    empty, two = np.empty((0, 2)), np.array([[0.1, 0.2], [0.3, 0.4]])
    params = MetricParams(1.0, 0.5)
    assert matching_details(empty, two, params, metric="d1") == (0.5, [])
    assert matching_details(two, empty, params) == (0.5, [(0, None), (1, None)])


grid_pattern = st.lists(st.tuples(*[st.integers(0, 4).map(lambda k: k / 4.0)] * 2),
                        max_size=7).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


@settings(max_examples=300, deadline=None)
@given(grid_pattern, grid_pattern, st.sampled_from([1.0, 2.0]),
       st.sampled_from([0.3, 1.0]))
def test_a_tied_pairing_covers_every_point_and_is_summed_exactly(xi, eta, p, c):
    value, pairs = matching_details(xi, eta, MetricParams(p, c))
    assert sorted(i for i, _ in pairs if i is not None) == list(range(len(xi)))
    assert sorted(j for _, j in pairs if j is not None) == list(range(len(eta)))
    matched = [(i, j) for i, j in pairs if i is not None and j is not None]
    assert len(matched) == min(len(xi), len(eta))
    costs = [min(cdist(xi[[i]], eta[[j]])[0, 0], c) for i, j in matched]
    costs = [x * x if p == 2.0 else x for x in costs]
    n = max(len(xi), len(eta))
    total = math.fsum(costs) + (n - len(matched)) * c ** p
    assert value == total ** (1.0 / p) / max(n, 1)
    assert abs(value - lsa_pair_distance(xi, eta, p, c)) <= 1e-12



def _collection(gen, size, dim, lam):
    """``size`` patterns in random order: an empty one, a 1-point one and one
    on a coarse grid, whose distances tie, and Poisson(lam) ones after them;
    fewer than 3 patterns are drawn from all of these."""
    kinds = [np.empty((0, dim)), gen.random((1, dim)),
             gen.integers(0, 3, size=(int(gen.integers(1, 6)), dim)) / 2.0]
    kinds += [gen.random((int(gen.poisson(lam)), dim)) for _ in range(size)]
    if size < 3:
        kinds = [kinds[k] for k in gen.choice(len(kinds), size, replace=False)]
    return _Stack([kinds[k] for k in gen.permutation(size)])


def _full_dbar2(xs, ys, params, spec, metric):
    costs = _distance_matrix(xs, ys, params, spec, metric)
    return _kernel.min_cost_matching(costs, 0.0)[0] / len(xs)


@pytest.mark.parametrize("metric", ["dbar1", "d1"])
@pytest.mark.parametrize("order", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("cutoff", [0.05, 0.3, 1.0])
def test_dbar2_is_bit_identical_to_the_optimal_pairing_of_the_full_matrix(
        metric, order, cutoff):
    gen = np.random.default_rng([int(10 * order), int(100 * cutoff), metric == "d1"])
    params = MetricParams(order, cutoff)
    for trial in range(114):  # 18 settings: 2,052 collection pairs
        size, dim = int(gen.integers(1, 13)), 1 + trial % 3
        spec = GroundMetricSpec(0.2) if trial % 2 else None
        lam = (0.5, 3.0, 8.0, 30.0)[trial % 4]
        xs, ys = _collection(gen, size, dim, lam), _collection(gen, size, dim, lam)
        value, solved = _kernel.dbar2(xs, ys, order, cutoff,
                                      math.inf if spec is None else spec.cap,
                                      metric == "d1")
        assert value == _full_dbar2(xs, ys, params, spec, metric)
        assert value == _dbar2(xs, ys, params, spec, metric)
        assert 0 <= solved <= size * size


def test_dbar2_solves_no_d1_pair_of_unequal_counts():
    gen = np.random.default_rng(4)
    xs = _Stack([gen.random((k, 2)) for k in range(12)])
    ys = _Stack([gen.random((k, 2)) for k in range(12, 24)])
    value, solved = _kernel.dbar2(xs, ys, 1.0, 0.3, math.inf, True)
    assert (value, solved) == (0.3, 0)


def test_dbar2_solves_under_half_the_pairs_of_paper_scale_collections():
    gen = np.random.default_rng(5)
    for _ in range(5):
        xs, ys = (_Stack([gen.random((int(gen.poisson(30)), 2)) for _ in range(12)])
                  for _ in range(2))
        value, solved = _kernel.dbar2(xs, ys, 1.0, 0.3, math.inf, False)
        assert value == _full_dbar2(xs, ys, MetricParams(1.0, 0.3), None, "dbar1")
        assert solved < 144 / 2


@pytest.mark.parametrize("metric", ["dbar1", "d1"])
@pytest.mark.parametrize("order", [1.0, 2.0])
@pytest.mark.parametrize("cutoff", [0.05, 0.3, 1.0])
def test_dbar2_of_tilted_against_uniform_collections_is_exact_and_settles_by_bounds(
        cutoff, order, metric):
    # kappa = 4 crowds the points of one side to x near 0, so many points
    # of the other side share a cheapest partner: a pair's bound by its
    # smaller pattern's points alone is at its loosest here
    params, d1, settled = MetricParams(order, cutoff), metric == "d1", 0
    for seed in range(3):
        rng = RngStream(seed)
        tilted = _Stack(sample_collection(
            12, lambda r: sample_poisson_fkappa(30.0, 4.0, rng=r), rng.substream(0)))
        uniform = _Stack(sample_collection(
            12, lambda r: sample_poisson_homogeneous(30.0, rng=r), rng.substream(1)))
        for xs, ys in ((tilted, uniform), (uniform, tilted)):
            exact, solved = _kernel.dbar2(xs, ys, order, cutoff, math.inf, d1)
            assert exact == _full_dbar2(xs, ys, params, None, metric)
            assert 0 <= solved <= 144
            for threshold in (0.9 * exact, 1.1 * exact):
                r, solved = _kernel.dbar2(xs, ys, order, cutoff, math.inf, d1,
                                          threshold, threshold)
                assert 0 <= solved <= 144
                if r > threshold:
                    assert exact >= r
                elif r < threshold:
                    assert exact <= r
                else:
                    assert r == exact
                settled += r != exact
    assert settled > 0


def test_dbar2_refuses_collections_of_different_sizes():
    stack = _Stack([np.zeros((2, 2))])
    for xs, ys in ((stack, _Stack([np.zeros((2, 2))] * 2)), (_Stack([]), _Stack([]))):
        with pytest.raises(ValueError, match="one size"):
            _kernel.dbar2(xs, ys, 1.0, 1.0, math.inf, False)


def test_the_round_cap_solves_every_pair_left_and_keeps_the_value(tmp_path, monkeypatch):
    # a build that reaches its round cap at the first round: the loop then
    # solves every pair still bounded, where the default build needs few
    path = str(tmp_path / "capped.so")
    subprocess.run([shutil.which("cc"), *_kernel.FLAGS, "-DPPM_ROUNDS_PER_PATTERN=0",
                    "-o", path, _kernel.SOURCE], check=True)
    capped = _kernel._declare(ctypes.CDLL(path))
    gen = np.random.default_rng(6)
    inputs = [(40, 1.0, lambda: gen.random((int(gen.integers(1, 4)), 2)))] * 5
    inputs += [(12, 0.3, lambda: gen.random((int(gen.poisson(30)), 2)))] * 3
    more = 0
    for size, cutoff, draw in inputs:
        xs, ys = (_Stack([draw() for _ in range(size)]) for _ in range(2))
        value, solved = _kernel.dbar2(xs, ys, 1.0, cutoff, math.inf, False)
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "_lib", capped)
            capped_value, capped_solved = _kernel.dbar2(xs, ys, 1.0, cutoff, math.inf,
                                                        False)
        assert capped_value == value == _full_dbar2(
            xs, ys, MetricParams(1.0, cutoff), None, "dbar1")
        assert solved <= capped_solved <= size * size
        more += capped_solved > solved
    assert more >= 3


def _layouts(stack):
    """``stack`` with its points C-ordered, as a Fortran-ordered copy and as
    a non-contiguous view."""
    wide = np.zeros((len(stack.points), 2 * stack.points.shape[1]))
    wide[:, ::2] = stack.points
    for points in (stack.points, np.asfortranarray(stack.points), wide[:, ::2]):
        copy = _Stack([])
        copy.points, copy.offsets, copy.counts = points, stack.offsets, stack.counts
        yield copy


@pytest.mark.parametrize("dim", [1, 3])
def test_the_kernel_reads_a_stack_alike_in_every_memory_layout(dim):
    gen = np.random.default_rng(dim)
    # two point totals, so that the two strides differ, and one of 0
    xs = _Stack([gen.random((k, dim)) for k in (4, 0, 9, 1, 6)])
    ys = _Stack([gen.random((k, dim)) for k in (7, 3, 0, 12, 2)])
    empty = _Stack([np.empty((0, dim))] * 5)
    rows, cols = np.indices((5, 5)).reshape(2, -1)
    for a, b in ((xs, ys), (ys, xs), (xs, empty), (empty, ys)):
        for p, c, d1 in ((1.0, 0.3, False), (1.5, 1.0, True)):
            seen = set()
            for xa, yb in itertools.product(_layouts(a), _layouts(b)):
                values, match = _kernel.pairs(xa, yb, rows, cols, p, c, math.inf, d1)
                seen.add((values.tobytes(), match.tobytes(),
                          _kernel.dbar2(xa, yb, p, c, math.inf, d1)))
            assert len(seen) == 1


SRC = os.path.dirname(os.path.dirname(os.path.abspath(ppmetrics.__file__)))


def _import_env(tmp_path, path):
    """A fresh kernel cache and temporary directory under ``tmp_path``."""
    (tmp_path / "tmp").mkdir(exist_ok=True)
    return dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
                TMPDIR=str(tmp_path / "tmp"), PATH=path,
                PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def _import(env):
    return subprocess.Popen([sys.executable, "-c", "import ppmetrics"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err


def _files(tmp_path):
    return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file())


def test_concurrent_first_imports_leave_one_library(tmp_path):
    env = _import_env(tmp_path, os.environ.get("PATH", ""))
    procs = [_import(env) for _ in range(2)]
    for proc in procs:
        code, err = _finish(proc)
        assert code == 0, err
    files = _files(tmp_path)
    assert len(files) == 1 and files[0].startswith(os.path.join("cache", "ppmetrics", ""))
    assert files[0].endswith(".so")
    # an import that finds the library needs no compiler
    (tmp_path / "bin").mkdir()
    code, err = _finish(_import(_import_env(tmp_path, str(tmp_path / "bin"))))
    assert code == 0, err


def test_import_without_a_compiler_fails_clearly(tmp_path):
    (tmp_path / "bin").mkdir()
    code, err = _finish(_import(_import_env(tmp_path, str(tmp_path / "bin"))))
    assert code != 0
    assert "ImportError: ppmetrics needs a C compiler" in err
    assert _files(tmp_path) == []


def test_an_unusable_cache_falls_back_to_a_private_temporary_directory(tmp_path):
    env = _import_env(tmp_path, os.environ.get("PATH", ""))
    # a file where the cache directory would go
    (tmp_path / "cache").write_text("")
    code, err = _finish(_import(env))
    assert code == 0, err
    private = tmp_path / "tmp" / f"ppmetrics-{os.getuid()}"
    assert stat.S_IMODE(private.stat().st_mode) == 0o700
    (library,) = private.iterdir()
    # a directory that others may write is never used
    library.unlink()
    private.chmod(0o777)
    code, err = _finish(_import(env))
    assert code != 0 and "not private to this user" in err
    assert list(private.iterdir()) == []


def test_a_build_deletes_only_the_stale_libraries_of_its_cache(tmp_path):
    cache = tmp_path / "cache" / "ppmetrics"
    cache.mkdir(parents=True)
    stale, fresh, other = (cache / name for name in
                           ("_kernel-stale.so", "_kernel-fresh.so", "notes.so"))
    for path in (stale, fresh, other):
        path.write_text("")
    two_days_ago = time.time() - 2 * 86400
    for path in (stale, other):
        os.utime(path, (two_days_ago, two_days_ago))
    code, err = _finish(_import(_import_env(tmp_path, os.environ.get("PATH", ""))))
    assert code == 0, err
    assert not stale.exists() and fresh.exists() and other.exists()
    built = [path.name for path in cache.iterdir() if path not in (fresh, other)]
    assert len(built) == 1 and built[0].startswith("_kernel-")
