#!/usr/bin/env python3
"""Record the outputs that run.py compares every checked op against.

    python3 perfbench/record_golden.py

Runs the set-up warm-up inputs and the first ops of seeds 0-31 of every
workload, checks them with the oracles, and writes their statistics, ranks,
p-values, decisions, powers and values to golden.json afresh.
Record only at a commit whose results are the reference: later commits must
reproduce them to 1e-12 relative, and decisions exactly.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads

SEEDS = range(32)
OPS = {"cli-test": 24, "power-pool": 4, "big-patterns": 32}
PATH = os.path.join(run.HERE, "golden.json")


def record(ppm, name, workdir):
    wl = workloads.WORKLOADS[name](ppm, workdir)
    keys = [(None, r) for r in range(wl.setups)]
    keys += [(seed, i) for seed in SEEDS for i in range(OPS[name])]
    values = {}
    for seed, index in keys:
        inp = wl.make_input(seed, index)
        out = wl.run(inp)
        problems = wl.check(inp, out)
        if problems:
            raise RuntimeError(f"{name} {wl.key(seed, index)}: {problems}")
        values[wl.key(seed, index)] = wl.golden_values(inp, out)
    return values


def main():
    ppm = run.load_ppmetrics()
    golden = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in sorted(OPS):
            golden[name] = record(ppm, name, workdir)
            print(f"{name}: {len(golden[name])} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one recorded op per line keeps diffs of this file readable
    blocks = []
    for name in sorted(golden):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(val, sort_keys=True)}"
                           for key, val in sorted(golden[name].items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
