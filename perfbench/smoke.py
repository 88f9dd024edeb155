#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run emits every metric BENCHMARK.json names with its
unit and a finite value, that no op fails and no traced name is absent,
that the traced run wrapped the calls it should have, that afterwards every
ppmetrics module binds exactly the objects it bound before, and that
README.md maps every per-layer metric. Exits 1 on the first problem.
"""

import json
import math
import os
import sys

import run


def bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ppmetrics" or name.startswith("ppmetrics."))
            for attr, value in vars(mod).items()}


def check_run(ppm, bench, workload, trace):
    metrics, notes = run.run_workload(ppm, workload, seed=0, seconds=0.2, trace=trace, tiny=True)
    line = json.loads(json.dumps(run.result_line(metrics, notes, trace)))
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        return [f"{workload} trace={trace}: {notes['problems']}"]
    problems = [f"{workload}: absent {name}" for name in notes.get("absent", [])]
    expected = bench["per_layer" if trace else "end_to_end"]
    if sorted(line["metrics"]) != sorted(m["name"] for m in expected):
        problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = line["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{workload} trace={trace}: {m['name']} = {got}")
    if trace and workload == "cli-test" and not metrics["assignment.inner.calls"] > 0:
        problems.append("the traced cli-test recorded no inner assignment")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ppm = run.load_ppmetrics()
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        before = bindings()
        for trace in (False, True):
            problems += check_run(ppm, bench, workload, trace)
        after = bindings()
        changed = [key for key in before.keys() | after.keys()
                   if before.get(key, None) is not after.get(key, None)]
        problems += [f"{workload}: {mod}.{attr} not restored" for mod, attr in changed]
        print(f"{workload}: done", file=sys.stderr)
    with open(os.path.join(run.HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    problems += [f"README.md does not map {m['name']}"
                 for m in bench["per_layer"] if f"`{m['name']}`" not in readme]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
