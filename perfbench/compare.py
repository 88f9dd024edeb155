#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Per workload and metric it prints each side's median and quartiles, how many
run pairs (the i-th run of each file) NEW wins, and a verdict against the
bound in BENCHMARK.json: "unresolved" when BASE's own spread (quartile
distance over median) exceeds the bound and not every NEW run beats every
BASE run, "REGRESSION" when NEW's median is worse by more than the bound.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["provenance"]["workload"], rec["provenance"]["trace"])
            runs.setdefault(key, []).append(
                {name: m["value"] for name, m in rec["result"]["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    with open(SPEC, encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':13} {'metric':30} {'base q1/med/q3':>32} {'new q1/med/q3':>32} wins verdict")
    for key in sorted(base.keys() & new.keys()):
        for name in base[key][0]:
            a = [r[name] for r in base[key]]
            b = [r[name] for r in new[key] if name in r]
            if not b:
                continue
            sign = 1 if spec.get(name, {}).get("better") == "higher" else -1
            qa, qb = quartiles(a), quartiles(b)
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            bound = spec.get(name, {}).get("bound")
            verdict = ""
            if bound is not None and qa[1]:
                worse = sign * (qa[1] - qb[1]) / abs(qa[1])
                all_better = min(sign * v for v in b) > max(sign * v for v in a)
                if (qa[2] - qa[0]) / abs(qa[1]) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "REGRESSION" if worse > bound else "ok"
            side = "{:10.4g} {:10.4g} {:10.4g}"
            print(f"{key[0]:13} {name:30} {side.format(*qa):>32} {side.format(*qb):>32} "
                  f"{wins:2}/{min(len(a), len(b)):<2} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
