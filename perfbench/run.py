#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ppmetrics.

    python3 perfbench/run.py --workload cli-test --seed 1 --seconds 32 --trace 0

Runs one workload from the root of a source checkout as a closed loop with
one caller: the next op starts when the previous one has returned. The only
parallelism is the process pool of ``power_study``, capped at the number of
usable cores through ``PPMETRICS_THREADS``. Every op's output is checked
(see ``workloads.py``); an op that raises or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see ``spans.py``). The line before it holds the provenance.
``--out FILE`` also appends both, with run notes, to a JSON-lines file that
``compare.py`` reads.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ppmetrics, ppmetrics.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)
# starts one IMPORT_PROBE interpreter per input line and echoes its output
PROBE_HELPER = (
    "import subprocess, sys\n"
    "for _ in sys.stdin:\n"
    "    out = subprocess.run([sys.executable, '-c', sys.argv[1]], capture_output=True,\n"
    "                         text=True, timeout=120, check=True).stdout\n"
    "    print(out.split()[-1], flush=True)\n"
)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # getrusage gives the peak of this process and of its largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class ImportProbe:
    """Times imports of ppmetrics in fresh interpreters.

    A helper process starts the interpreters, so their memory reaches this
    process's peak child RSS only when :meth:`close` has reaped the helper,
    after the run has read it.
    """

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_HELPER, IMPORT_PROBE],
                                     env=env, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def seconds(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the import probe failed")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _git_commit():
    # the ceiling keeps git from reporting a repository that merely contains ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ppmetrics")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(ppm, workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ppmetrics": ppm.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "PPMETRICS_THREADS": os.environ.get("PPMETRICS_THREADS"),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Runner:
    """Runs one workload's set-ups and its measured loop; counts failures."""

    def __init__(self, wl, probe, seed, seconds):
        self.wl = wl
        self.probe = probe
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.inputs = []

    def attempt(self, inp, parallel=True, tracer=None):
        """Run and time one op, then check it.

        Returns (wall_s, cpu_s, output), with output None when the op failed.
        """
        out = None
        with tracer.installed() if tracer is not None else nullcontext():
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                out = self.wl.run(inp, parallel)
                problems = []
            except (Exception, SystemExit) as exc:
                problems = [f"{self.wl.name} raised {type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
        if not problems:
            try:
                problems = self.wl.check(inp, out)
            except Exception as exc:
                problems = [f"{self.wl.name} check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            out = None
        return wall, cpu, out

    def setup(self, r=0):
        """Import ppmetrics in a fresh interpreter, make the inputs and run
        the r-th warm-up op; return the time of all three."""
        imported = self.probe.seconds()
        t0 = time.perf_counter()
        self.inputs = [self.wl.make_input(self.seed, i) for i in range(self.wl.batch)]
        warm = self.wl.make_input(None, r)
        made = time.perf_counter() - t0
        wall, _, _ = self.attempt(warm)
        return imported + made + wall

    def ops(self, spent, counted=True):
        """Yield op inputs in whole alternation groups, at least one.

        Another group starts while it is expected to end within the run's
        seconds, with ``spent()`` the op time so far; when ``counted``, the
        workload's op counts override that: at least min_ops, at most max_ops.
        """
        wl = self.wl
        i = 0
        while True:
            if i and i % wl.group == 0:
                if counted and wl.max_ops is not None and i >= wl.max_ops:
                    return
                if not (counted and i < wl.min_ops) and \
                        spent() * (i + wl.group) / i > self.seconds:
                    return
            yield self.inputs[i] if i < len(self.inputs) else self.wl.make_input(self.seed, i)
            i += 1

    def measure(self):
        """The measured loop; the workload's set-ups are spread over it, one
        before the first op and the others at even steps of the op time, so
        that setup_s samples the same stretch of time as the op metrics."""
        walls, cpus, setups = [], [], [self.setup(0)]
        due = self.seconds / self.wl.setups
        for inp in self.ops(lambda: math.fsum(walls)):
            while len(setups) < self.wl.setups and math.fsum(walls) >= len(setups) * due:
                setups.append(self.setup(len(setups)))
            wall, cpu, _ = self.attempt(inp)
            walls.append(wall)
            cpus.append(cpu)
        while len(setups) < self.wl.setups:
            setups.append(self.setup(len(setups)))
        return walls, cpus, setups

    def trace(self):
        """Untraced and traced runs of the same inputs; per-layer summaries.

        power-pool runs each cell parallel (untraced), serial (untraced) and
        serial (traced), because spans in worker processes are not visible.
        Ops fill the run's seconds whatever the workload's op counts, so a
        traced power-pool run holds one pair.
        """
        tracer = spans.Tracer()
        pool = self.wl.name == "power-pool"
        summaries = []
        base = traced = parallel_s = serial_s = 0.0
        t0 = time.perf_counter()
        for inp in self.ops(lambda: time.perf_counter() - t0, counted=False):
            first, _, out_a = self.attempt(inp, parallel=True)
            if pool:
                second, _, out_b = self.attempt(inp, parallel=False)
                parallel_s += first
                serial_s += second
                if out_a is not None and out_b is not None and out_a.power != out_b.power:
                    self._fail(f"power {out_b.power} serial, {out_a.power} parallel")
                first = second
            wall, _, out_t = self.attempt(inp, parallel=not pool, tracer=tracer)
            summaries.append(spans.summarise(tracer.take(), wall))
            if out_a is not None and out_t is not None and \
                    self.wl.golden_values(inp, out_a) != self.wl.golden_values(inp, out_t):
                self._fail(f"{self.wl.name}: traced output differs from untraced")
            base += first
            traced += wall
        speedup = serial_s / parallel_s if parallel_s else 0.0
        overhead = traced / base - 1.0 if base else 0.0
        return spans.layer_metrics(summaries, overhead, speedup), tracer.absent

    def _fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def run_workload(ppm, name, seed, seconds, trace, tiny=False, golden=None):
    """Run one workload; return (metrics, notes). Metrics map name -> value."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    probe = ImportProbe()
    try:
        wl = workloads.WORKLOADS[name](ppm, workdir, tiny=tiny, golden=golden)
        runner = Runner(wl, probe, seed, seconds)
        notes = {}
        if trace:
            runner.setup()
            metrics, notes["absent"] = runner.trace()
        else:
            walls, cpus, setups = runner.measure()
            rss = _peak_rss_mb()
            metrics = {
                "setup_s": statistics.median(setups),
                "op_p50_s": statistics.median(walls),
                "op_tail_s": _nearest_rank(walls, wl.tail_pct),
                "ops_per_s": len(walls) / math.fsum(walls),
                "cpu_s_per_op": math.fsum(cpus) / len(cpus),
                "peak_rss_mb": rss,
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
            notes.update(ops=len(walls), tail_percentile=wl.tail_pct,
                         beyond_tail=sum(w > metrics["op_tail_s"] for w in walls),
                         setups=setups)
        notes.update(attempted=runner.attempted, failed=runner.failed,
                     problems=runner.problems[:20])
        return metrics, notes
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(metrics, notes, trace):
    """The object printed as the last line: counts and every metric with its unit."""
    units = spans.LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": notes["failed"] == 0,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def load_ppmetrics():
    """Import ppmetrics from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ppmetrics", "__init__.py")):
        raise FileNotFoundError(f"no ppmetrics sources under {SRC}")
    sys.path.insert(0, SRC)
    import ppmetrics
    import ppmetrics.cli  # noqa: F401  (the cli-test workload calls it)

    if not os.path.abspath(ppmetrics.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ppmetrics imported from {ppmetrics.__file__}, not {SRC}")
    os.environ["PPMETRICS_THREADS"] = str(len(os.sched_getaffinity(0)))
    return ppmetrics


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        ppm = load_ppmetrics()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics, notes = run_workload(ppm, args.workload, args.seed, args.seconds,
                                  bool(args.trace), golden=load_golden())
    result = result_line(metrics, notes, args.trace)
    prov = provenance(ppm, args.workload, args.seed, args.seconds, args.trace)
    for problem in notes["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name in notes.get("absent", []):
        print(f"absent: {name}", file=sys.stderr)
    print(json.dumps({k: v for k, v in notes.items() if k != "problems"}), file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov, "notes": notes, "result": result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
