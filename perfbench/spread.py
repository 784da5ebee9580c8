#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve_small --seeds 0-9

Runs perfbench/run.py once per seed (from the repository root, untraced, with
BENCHMARK.json's run_seconds) and prints, per metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. Exits 1 when
a run fails or a spread (setup_s excepted) exceeds its bound. record.py calls
spread() for the spread section of baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(bench, workload, seeds):
    """Run `workload` once per seed. Returns {metric: {median, q1, q3,
    iqr_over_median, unit}}, or None when a run fails."""
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        steal = [l[2:] for l in p.stdout.splitlines() if l.startswith("# cpu steal")]
        print(f"{workload} seed {seed}: exit {p.returncode}, correct {result.get('correct')}"
              f"{'; ' + steal[0] if steal else ''}", flush=True)
        if p.returncode != 0 or result.get("correct") is not True:
            print(p.stdout, file=sys.stderr)
            return None
        runs.append(result["metrics"])
    table = {}
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        table[name] = {"median": med, "q1": q[0], "q3": q[2],
                       "iqr_over_median": (q[2] - q[0]) / med if med else 0.0,
                       "unit": first["unit"]}
    return table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = spread(bench, args.workload, parse_seeds(args.seeds))
    if table is None:
        return 1

    ok = True
    print(f"{'metric':28s} {'median':>14s} {'IQR/median':>11s} {'bound':>6s}")
    for name, s in table.items():
        share, bound = s["iqr_over_median"], bounds[name]
        flag = ""
        if name != "setup_s" and share > bound:
            flag, ok = " OVER", False
        elif share > bound / 3:
            flag = " (above a third of the bound)"
        print(f"{name:28s} {s['median']:14.6g} {share:11.4f} {bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
