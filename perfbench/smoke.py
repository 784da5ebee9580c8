#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload (BENCHMARK.json's and serve_small) at reduced size
(--smoke, one second), untraced and traced, and asserts that each run exits 0,
prints exactly the result keys, reports every metric BENCHMARK.json names for
that mode with its unit and a finite value, and has error_rate 0 (failed ==
0). Also checks that perfbench/metrics.json describes exactly the metrics
BENCHMARK.json lists.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    assert p.returncode == 0, f"{workload} trace {trace}: exit {p.returncode}\n{p.stdout}"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True, f"{workload} trace {trace}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace, result)
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert sorted(got) == sorted(want), (workload, trace, set(got) ^ set(want))
    for name, m in got.items():
        assert m["unit"] == want[name], (workload, name, m["unit"], want[name])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    print(f"ok  {workload:16s} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} ops, 0 failed", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        meta = json.load(f)
    listed = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert sorted(listed) == sorted(meta["metrics"]), set(listed) ^ set(meta["metrics"])
    workloads = {w["name"] for w in bench["workloads"]}

    # Every workload a metric is described on: BENCHMARK.json's plus
    # serve_small, which is run by hand only (see README.md).
    runs = sorted({w for d in meta["metrics"].values() for w in d["on"]} | workloads)
    for w in runs:
        for trace in (0, 1):
            check_run(bench, w, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
