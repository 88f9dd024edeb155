"""Span tracing around the public boundaries of the ppmetrics modules.

A :class:`Tracer` replaces, for the duration of a ``with tracer.installed()``
block, every module attribute of the ``ppmetrics`` package that is bound to
one of the traced functions (the public names in ``BOUNDARIES`` and the
scipy entry points in ``SCIPY_ENTRY_POINTS``) by a wrapper that records a
span ``(kind, start, end, parent, shape)``. Spans are kept in memory and
summarised per traced op by :func:`summarise`. Leaving the block restores
every original binding.

Wrapping by identity wherever a module binds the object, rather than at one
fixed module, keeps the counts comparable when code moves between modules.
A boundary that no module binds any more is reported as absent.
"""

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# public ppmetrics name -> layer kind
BOUNDARIES = {
    "main": "cli",
    "read_patterns": "fileio.read",
    "read_single_pattern": "fileio.read",
    "dumps_result": "fileio.dump",
    "homogeneity_test": "statistics.test",
    "power_study": "statistics.power",
    "ustat": "statistics.ustat",
    "avg_nn_statistic": "statistics.avgnn",
    "min_enclosing_ball": "geometry.minball",
    "sample_poisson_homogeneous": "processes.sample",
    "sample_poisson_fkappa": "processes.sample",
    "sample_collection": "processes.sample",
    "d1": "metrics.pair",
    "dbar1": "metrics.pair",
    "dbar1_pc": "metrics.pair",
    "dW_empirical": "metrics.pair",
    "matching_details": "metrics.details",
    "pattern_distance_matrix": "metrics.matrix",
    "dbar2_empirical": "metrics.dbar2",
    "dbar2_transport": "metrics.transport",
    "solve_assignment": "assignment.kernel",
    "solve_transportation": "assignment.transport",
}

# (scipy module, name) -> kind; wrapped under whatever name ppmetrics binds it
SCIPY_ENTRY_POINTS = {
    ("scipy.spatial.distance", "cdist"): "scipy.cdist",
    ("scipy.optimize", "linear_sum_assignment"): "scipy.lsa",
    ("scipy.optimize", "linprog"): "scipy.linprog",
}

PAIR_KINDS = frozenset({"metrics.pair", "metrics.details", "metrics.matrix"})

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "assignment.inner.calls": "count",
    "assignment.inner.self_s": "s",
    "assignment.inner.cells": "count",
    "assignment.inner.size_p50": "points",
    "assignment.inner.size_max": "points",
    "assignment.inner.useful_frac": "frac",
    "assignment.outer.calls": "count",
    "assignment.outer.self_s": "s",
    "assignment.transport.calls": "count",
    "assignment.transport.self_s": "s",
    "metrics.ground.calls": "count",
    "metrics.ground.self_s": "s",
    "metrics.matrix.calls": "count",
    "metrics.matrix.self_s": "s",
    "metrics.pairs": "count",
    "metrics.glue_us_per_pair": "us",
    "metrics.pair.calls": "count",
    "metrics.pair.self_s": "s",
    "metrics.dbar2.calls": "count",
    "metrics.dbar2.self_s": "s",
    "metrics.details.self_s": "s",
    "metrics.transport.self_s": "s",
    "processes.sample.calls": "count",
    "processes.sample.self_s": "s",
    "processes.points": "count",
    "statistics.test.calls": "count",
    "statistics.test.self_s": "s",
    "statistics.nulls_per_test": "count",
    "statistics.power.self_s": "s",
    "statistics.pool.speedup": "ratio",
    "statistics.ustat.self_s": "s",
    "statistics.avgnn.self_s": "s",
    "geometry.minball.calls": "count",
    "geometry.minball.self_s": "s",
    "fileio.read.self_s": "s",
    "fileio.dump.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "unattributed.self_s": "s",
}

# kind whose self time a layer metric adds up (scipy kinds are split below)
_SELF_TIME_OF = {
    "assignment.kernel": "assignment.inner.self_s",
    "assignment.transport": "assignment.transport.self_s",
    "scipy.linprog": "assignment.transport.self_s",
    "scipy.cdist": "metrics.ground.self_s",
}


def _ppmetrics_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ppmetrics" or name.startswith("ppmetrics."))]


class Tracer:
    """Installs span-recording wrappers and collects the spans of one op."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.absent = []

    def _targets(self):
        """Map id(original object) -> (object, kind) for every traced boundary."""
        modules = _ppmetrics_modules()
        targets = {}
        for name, kind in BOUNDARIES.items():
            found = False
            for mod in modules:
                obj = mod.__dict__.get(name)
                if callable(obj) and getattr(obj, "__module__", "").startswith("ppmetrics"):
                    targets[id(obj)] = (obj, kind)
                    found = True
            if not found:
                self.absent.append(name)
        for (modname, name), kind in SCIPY_ENTRY_POINTS.items():
            obj = getattr(sys.modules.get(modname), name, None)
            if obj is None:
                self.absent.append(f"{modname}.{name}")
            else:
                targets[id(obj)] = (obj, kind)
        return modules, targets

    def _wrap(self, fn, kind):
        spans = self.spans
        stack = self._stack
        lsa = kind == "scipy.lsa"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (kind, t0, perf_counter(), parent, None)
                stack.pop()
            shape = np.shape(args[0]) if lsa and args else getattr(out, "shape", None)
            spans[idx] = spans[idx][:4] + (shape,)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every traced object; restore them on exit."""
        self.absent = []
        modules, targets = self._targets()
        wrappers = {key: self._wrap(obj, kind) for key, (obj, kind) in targets.items()}
        patched = []
        try:
            for mod in modules:
                for attr, value in list(mod.__dict__.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and targets[id(value)][0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarise(spans, op_wall_s):
    """Per-layer totals of one traced op: counts, self times and sizes.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced code is serial.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for kind, t0, t1, parent, _ in spans:
        if parent < 0:
            top += t1 - t0
        else:
            child[parent] += t1 - t0
    acc = {name: 0.0 for name in LAYER_UNITS if not name.startswith(("trace.", "statistics.pool"))}
    acc["_inner_sizes"] = []
    acc["_useful_cells"] = 0.0
    acc["_matrix_pairs"] = 0.0
    acc["_test_dbar2"] = 0.0
    for idx, (kind, t0, t1, parent, shape) in enumerate(spans):
        self_t = t1 - t0 - child[idx]
        parent_kind = spans[parent][0] if parent >= 0 else None
        if kind == "scipy.lsa":
            side = "outer" if parent_kind == "metrics.dbar2" else "inner"
            acc[f"assignment.{side}.calls"] += 1
            acc[f"assignment.{side}.self_s"] += self_t
            if side == "inner" and shape is not None and len(shape) == 2:
                acc["assignment.inner.cells"] += shape[0] * shape[1]
                acc["_inner_sizes"].append(max(shape))
            continue
        if kind in _SELF_TIME_OF:
            acc[_SELF_TIME_OF[kind]] += self_t
        elif f"{kind}.self_s" in acc:
            acc[f"{kind}.self_s"] += self_t
        if f"{kind}.calls" in acc:
            acc[f"{kind}.calls"] += 1
        if kind == "scipy.cdist":
            acc["metrics.ground.calls"] += 1
            if parent_kind in PAIR_KINDS and shape is not None:
                acc["_useful_cells"] += shape[0] * shape[1]
        elif kind == "metrics.matrix" and shape is not None:
            acc["metrics.pairs"] += shape[0] * shape[1]
            acc["_matrix_pairs"] += shape[0] * shape[1]
        elif kind in ("metrics.pair", "metrics.details") and parent_kind not in PAIR_KINDS:
            acc["metrics.pairs"] += 1
        elif kind == "processes.sample" and shape is not None and len(shape) == 2:
            acc["processes.points"] += shape[0]
        elif kind == "metrics.dbar2" and parent_kind == "statistics.test":
            acc["_test_dbar2"] += 1
    acc["unattributed.self_s"] = op_wall_s - top
    return acc


def layer_metrics(summaries, overhead_frac, speedup):
    """Average per-op summaries into the reported per-layer metrics."""
    n = max(len(summaries), 1)
    out = {}
    sizes = [s for acc in summaries for s in acc["_inner_sizes"]]
    totals = {}
    for acc in summaries:
        for key, val in acc.items():
            if key != "_inner_sizes":
                totals[key] = totals.get(key, 0.0) + val
    for name in LAYER_UNITS:
        out[name] = totals.get(name, 0.0) / n
    cells = totals.get("assignment.inner.cells", 0.0)
    out["assignment.inner.size_p50"] = float(statistics.median(sizes)) if sizes else 0.0
    out["assignment.inner.size_max"] = float(max(sizes)) if sizes else 0.0
    out["assignment.inner.useful_frac"] = totals.get("_useful_cells", 0.0) / cells if cells else 0.0
    pairs = totals.get("_matrix_pairs", 0.0)
    out["metrics.glue_us_per_pair"] = (
        1e6 * totals.get("metrics.matrix.self_s", 0.0) / pairs if pairs else 0.0)
    tests = totals.get("statistics.test.calls", 0.0)
    out["statistics.nulls_per_test"] = totals.get("_test_dbar2", 0.0) / tests - 1 if tests else 0.0
    out["statistics.pool.speedup"] = speedup
    out["trace.overhead_frac"] = overhead_frac
    return out
