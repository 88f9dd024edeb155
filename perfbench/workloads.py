"""The benchmark's workloads: input generation, one op each, and output checks.

Inputs are a pure function of ``(seed, index)``; set-up warm-ups use the
fixed key ``(None, r)`` so that their outputs can be compared against the
values recorded from the seed commit in ``golden.json``. Every check that
does not use the recorded values uses the independent oracles in
``oracle.py``. A check returns a list of problems; an empty list passes.
"""

import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

import oracle

ALPHA = 0.05


def _rng(workload_id, seed, index):
    # warm-up inputs (seed None) live in their own branch of the seed tree
    head = (workload_id, 0, 0) if seed is None else (workload_id, 1, seed)
    return np.random.default_rng(np.random.SeedSequence(head + (index,)))


def _tilted_pattern(gen, lam, kappa):
    n = int(gen.poisson(lam))
    x = -np.log1p(gen.random(n) * np.expm1(-kappa)) / kappa
    return np.column_stack([x, gen.random(n)]) if n else np.empty((0, 2))


def _uniform_pattern(gen, lam):
    return gen.random((int(gen.poisson(lam)), 2))


def _close(a, b, rel):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


class Workload:
    """Base: subclasses define ``make_input``, ``run`` and ``check``."""

    name = ""
    wid = 0
    group = 2            # ops alternate between two settings
    tail_pct = 100.0     # fixed percentile reported as op_tail_s
    batch = 8            # op inputs made during set-up; later ones on demand
    setups = 5           # set-ups per run, spread over it; setup_s is their median
    min_ops = 2          # ops per run: at least min_ops (ten beyond tail_pct),
    max_ops = None       # at most max_ops, else as many as fit the run's seconds
    exact = frozenset()  # recorded outputs that must match exactly, not to 1e-12

    def __init__(self, ppm, workdir, tiny=False, golden=None):
        self.ppm = ppm
        self.workdir = workdir
        self.tiny = tiny
        self.golden = {} if tiny or golden is None else golden.get(self.name, {})

    def key(self, seed, index):
        return f"{'w' if seed is None else seed}:{index}"

    def check_golden(self, inp, out):
        want = self.golden.get(self.key(inp["seed"], inp["index"]))
        if want is None:
            return []
        got = self.golden_values(inp, out)
        problems = []
        for name, value in want.items():
            have = got.get(name)
            if name in self.exact or have is None:
                ok = have == value
            else:
                ok = _close(have, value, 1e-12)
            if not ok:
                problems.append(f"{self.name} {self.key(inp['seed'], inp['index'])}: "
                                f"{name} = {have!r}, seed commit gave {value!r}")
        return problems


class CliTest(Workload):
    """In-process ``ppmetrics test`` on a file of tilted-Poisson patterns."""

    name = "cli-test"
    wid = 1
    tail_pct = 60.0
    min_ops = 26
    batch = 48
    setups = 4
    exact = frozenset({"rank", "p_value", "reject"})
    cutoffs = (0.3, 1.0)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_patterns, self.lam, self.n_null = (4, 10.0, 19) if self.tiny else (12, 30.0, 99)
        self.validator = oracle.schema_validator(self.ppm)

    def make_input(self, seed, index):
        gen = _rng(self.wid, seed, index)
        patterns = [_tilted_pattern(gen, self.lam, 2.0) for _ in range(self.n_patterns)]
        path = os.path.join(self.workdir, f"cli-{self.key(seed, index)}.txt")
        oracle.write_pattern_file(path, patterns)
        return {"seed": seed, "index": index, "path": path, "patterns": patterns,
                "cutoff": self.cutoffs[index % 2], "cli_seed": int(gen.integers(2**31))}

    def run(self, inp, parallel=True):
        argv = ["test", inp["path"], "--cutoff", repr(inp["cutoff"]),
                "--null", str(self.n_null), "--seed", str(inp["cli_seed"])]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.ppm.cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, inp, out):
        if out["code"] != 0:
            return [f"cli-test exit code {out['code']}"]
        doc = json.loads(out["stdout"])
        out["doc"] = doc
        problems = [f"schema: {err.message}" for err in self.validator.iter_errors(doc)]
        nulls = doc.get("null_statistics", [])
        stat, rank = doc.get("statistic"), doc.get("rank")
        if problems or len(nulls) != self.n_null:
            return problems or [f"{len(nulls)} null statistics, expected {self.n_null}"]
        higher = sum(v > stat for v in nulls)
        tied = sum(v == stat for v in nulls)
        k = self.n_null + 1
        if not 1 + higher <= rank <= 1 + higher + tied:
            problems.append(f"rank {rank} outside [{1 + higher}, {1 + higher + tied}]")
        if doc["p_value"] != rank / k:
            problems.append(f"p_value {doc['p_value']} != rank / {k}")
        # alpha * k is an integer here, so every exact-size rule agrees
        if doc["reject"] != (rank <= round(ALPHA * k)):
            problems.append(f"reject {doc['reject']} at rank {rank}")
        cutoff = inp["cutoff"]
        if not all(0.0 <= v <= cutoff for v in nulls + [stat]):
            problems.append("a statistic lies outside [0, cutoff]")
        if doc["parameters"]["cutoff"] != cutoff or doc["seed"] != inp["cli_seed"]:
            problems.append("parameters not echoed")
        want = oracle.homogeneity_statistic(self.ppm, inp["patterns"], cutoff, inp["cli_seed"])
        if not _close(stat, want, 1e-9):
            problems.append(f"statistic {stat!r}, oracle {want!r}")
        return problems + self.check_golden(inp, out)

    def golden_values(self, inp, out):
        doc = out["doc"]
        return {"statistic": doc["statistic"], "null_sum": math.fsum(doc["null_statistics"]),
                "rank": doc["rank"], "p_value": doc["p_value"], "reject": doc["reject"]}


class PowerPool(Workload):
    """One ``power_study`` cell, parallel over the process pool."""

    name = "power-pool"
    wid = 2
    min_ops = max_ops = 4  # two pairs, so op_tail_s is always the maximum of four cells
    setups = 3
    exact = frozenset({"power"})
    cells = ((1.0, 1.0), (4.0, 0.3))   # (kappa, cutoff): power about 0.1 and 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_patterns, self.lam, self.n_null = (4, 10.0, 19) if self.tiny else (12, 30.0, 99)
        self.reps = 2 if self.tiny else 10

    def make_input(self, seed, index):
        gen = _rng(self.wid, seed, index)
        kappa, cutoff = self.cells[index % 2]
        # a set-up warm-up is one replicate per worker, not a full cell
        reps = 2 if seed is None else self.reps
        return {"seed": seed, "index": index, "kappa": kappa, "cutoff": cutoff,
                "reps": reps, "rng_seed": int(gen.integers(2**31))}

    def run(self, inp, parallel=True):
        ppm = self.ppm
        return ppm.statistics.power_study(
            inp["kappa"], n_patterns=self.n_patterns, lam=self.lam, cutoff=inp["cutoff"],
            reps=inp["reps"], rng=ppm.processes.RngStream(inp["rng_seed"]),
            n_null=self.n_null, parallel=parallel)

    def check(self, inp, out):
        problems = []
        reps = inp["reps"]
        hits = out.power * reps
        if out.reps != reps or abs(hits - round(hits)) > 1e-9 or not 0 <= hits <= reps:
            problems.append(f"power {out.power} is not a rejection fraction of {reps}")
        if not _close(out.standard_error, math.sqrt(out.power * (1 - out.power) / reps), 1e-12):
            problems.append(f"standard error {out.standard_error} for power {out.power}")
        if (out.kappa, out.cutoff) != (inp["kappa"], inp["cutoff"]):
            problems.append("cell parameters not echoed")
        return problems + self.check_golden(inp, out)

    def golden_values(self, inp, out):
        return {"power": out.power}


class BigPatterns(Workload):
    """A serial round of the large-pattern metrics and the Welzl U-statistic."""

    name = "big-patterns"
    wid = 3
    tail_pct = 95.0
    min_ops = 200
    batch = 256
    setups = 5
    cutoff = 0.3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.tiny:
            self.lam_big, self.lam_small, self.n_ustat, self.sides = 40.0, 10.0, 6, (4, 3)
        else:
            self.lam_big, self.lam_small, self.n_ustat, self.sides = 400.0, 30.0, 12, (12, 9)

    def make_input(self, seed, index):
        gen = _rng(self.wid, seed, index)
        big = [_uniform_pattern(gen, self.lam_big) for _ in range(4)]
        ps = [_uniform_pattern(gen, self.lam_small) for _ in range(self.sides[0])]
        qs = [_uniform_pattern(gen, self.lam_small) for _ in range(self.sides[1])]
        return {"seed": seed, "index": index, "big": big, "ps": ps, "qs": qs,
                "ustat": gen.random((self.n_ustat, 2))}

    def run(self, inp, parallel=True):
        ppm = self.ppm
        params = [ppm.metrics.MetricParams(p, self.cutoff) for p in (1.0, 2.0)]
        a, b, c, d = inp["big"]
        out = {}
        out["pc1"] = ppm.metrics.dbar1_pc(a, b, params[0])
        out["pc2"] = ppm.metrics.dbar1_pc(a, b, params[1])
        out["details"], out["pairs"] = ppm.metrics.matching_details(c, d, params[0])
        out["transport"] = ppm.metrics.dbar2_transport(inp["ps"], inp["qs"], params[0])
        out["ustat"] = ppm.statistics.ustat(
            inp["ustat"], ppm.statistics.KernelSpec("minball_diameter", 3), (0.5, 0.5))
        out["avgnn"] = ppm.statistics.avg_nn_statistic(a)
        return out

    def check(self, inp, out):
        c = self.cutoff
        a, b, xi, eta = inp["big"]
        problems = []
        if not all(0.0 <= out[k] <= c for k in ("pc1", "pc2", "details", "transport")):
            problems.append("a pattern distance lies outside [0, cutoff]")
        # the independent assignment oracle checks one of the two orders per op
        p = 1.0 if inp["index"] % 2 == 0 else 2.0
        got = out["pc1"] if p == 1.0 else out["pc2"]
        want = oracle.pc_distance(a, b, p, c)
        if not _close(got, want, 1e-9):
            problems.append(f"dbar1_pc p={p}: {got!r}, oracle {want!r}")
        problems += oracle.matching_problems(xi, eta, out["pairs"], out["details"], 1.0, c)
        want = oracle.uniform_transport(inp["ps"], inp["qs"], c)
        if not _close(out["transport"], want, 1e-9):
            problems.append(f"dbar2_transport {out['transport']!r}, oracle {want!r}")
        want = oracle.minball_ustat(inp["ustat"], 1.0)
        if not _close(out["ustat"], want, 1e-9):
            problems.append(f"ustat {out['ustat']!r}, oracle {want!r}")
        want = oracle.avg_nn(a, 1.0)
        if not _close(out["avgnn"], want, 1e-9):
            problems.append(f"avg_nn_statistic {out['avgnn']!r}, oracle {want!r}")
        return problems + self.check_golden(inp, out)

    def golden_values(self, inp, out):
        return {k: out[k] for k in ("pc1", "pc2", "details", "transport", "ustat", "avgnn")}


WORKLOADS = {cls.name: cls for cls in (CliTest, PowerPool, BigPatterns)}
