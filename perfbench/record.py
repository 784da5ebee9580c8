#!/usr/bin/env python3
"""Record the benchmark baseline.

    python3 perfbench/record.py --seeds 0,9001 --spread-seeds 0-9 --out perfbench/baseline.json

Runs every workload of BENCHMARK.json at each seed, untraced and traced, with
BENCHMARK.json's run_seconds, and writes one JSON document holding each run's
result and its "# " detail lines (tracing overhead, encode-stage gap against
Stats.timing, per-layer table), then the run-to-run spread of every
end-to-end metric over --spread-seeds (spread.py). Exits 1 when any run fails.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

from spread import parse_seeds, spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0,9001")
    ap.add_argument("--spread-seeds", default="0-9")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    doc = {
        "date": datetime.date.today().isoformat(),
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count()},
        "run_seconds": bench["run_seconds"],
        "runs": [],
    }
    for w in bench["workloads"]:
        for seed in [int(s) for s in args.seeds.split(",")]:
            for trace in (0, 1):
                cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(trace)]
                p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = p.stdout.strip().splitlines()
                print(f"{w['name']} seed {seed} trace {trace}: exit {p.returncode}", flush=True)
                if p.returncode != 0:
                    print(p.stdout, file=sys.stderr)
                    return 1
                doc["runs"].append({
                    "workload": w["name"], "seed": seed, "trace": trace,
                    "result": json.loads(lines[-1]),
                    "detail": [l[2:] for l in lines[:-1] if l.startswith("# ")],
                })
    seeds = parse_seeds(args.spread_seeds)
    doc["spread"] = {
        "about": f"python3 perfbench/spread.py --workload W --seeds {args.spread_seeds} "
                 "(untraced, run_seconds from BENCHMARK.json): per metric the median, "
                 "quartiles and (q3 - q1) / median of the runs",
        "workloads": {},
    }
    for w in bench["workloads"]:
        table = spread(bench, w["name"], seeds)
        if table is None:
            return 1
        doc["spread"]["workloads"][w["name"]] = {"seeds": seeds, "metrics": table}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
