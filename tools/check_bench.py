#!/usr/bin/env python3
"""Perf-regression gate over bench_micro JSON records.

Usage:
    check_bench.py BASELINE.json CURRENT.json [BASELINE2 CURRENT2 ...]
    check_bench.py --fail-pct 15 --warn-pct 5 base.json cur.json

Compares each CURRENT record (a fresh bench_micro run) against its committed
BASELINE and exits non-zero on a regression beyond --fail-pct (default 15%);
regressions beyond --warn-pct (default 5%) are reported but do not fail the
gate. CI runners are noisy and run smaller problem sizes than the committed
baselines, so metrics are gated by class:

  * Correctness booleans (round_trip_ok, bit_identical, recovery_ok, ...)
    must be true in CURRENT. Always checked; a false is always a failure.
  * Scale-free metrics are compared whenever both records carry them:
    speedups (higher is better) and derived compression ratios
    (compressed_bytes / input_bytes, lower is better). These measure the
    code against itself on the same machine and size, so they transfer
    across machines and problem sizes.
  * Absolute rates (*_mbps, *_mvox_s; higher is better) are gated only
    when the two records have identical dims — a 96-cube CI run against a
    256-cube committed baseline says nothing about throughput — AND
    --gate-rates is passed: rates are machine-dependent, so they only mean
    something when the baseline was recorded on the same hardware (local
    development); CI omits the flag and gets them as info lines.
  * Absolute *_seconds are never gated (machine-dependent even at equal
    dims); they ride along in the records for human inspection.

Speedups shrink with the problem size (a 96-cube run amortizes less setup
than a 256-cube one), so CI gates its small runs against committed
same-size baselines (BENCH_ci96_*.json), not against the 256-cube records
that document the headline numbers.

Small lower-is-better ratios (verify_vs_decode ~ 0.04) get an absolute
slack of 0.02 on top of the percentage so that jitter in a near-zero
denominator cannot fail the gate. The recovery record's tolerant_overhead
is not gated: the tolerant and strict decodes run the same chunk loop, so
it is host noise around zero, wider than the slack.

Exit codes: 0 = ok (possibly with warnings), 1 = regression or correctness
failure, 2 = usage / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Metric classification. Key order in REPORT lines follows the record.
BOOL_KEYS = ("round_trip_ok", "bit_identical", "parallel_bit_identical",
             "recovery_ok")
RATE_SUFFIXES = ("_mbps", "_mvox_s")  # higher better, dims-gated
SMALL_RATIO_KEYS = ("verify_vs_decode",)  # lower better
SMALL_RATIO_SLACK = 0.02
# (compressed, divisor) pairs that define derived compression ratios.
RATIO_PAIRS = (
    ("blocked_bytes", "input_bytes"),
    ("reference_bytes", "input_bytes"),
    ("payload_bits", None),  # no stable divisor in-record: not gated
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def pct_drop(base, cur):
    """Percent regression for a higher-is-better metric."""
    if base <= 0:
        return 0.0
    return 100.0 * (base - cur) / base


def pct_rise(base, cur):
    """Percent regression for a lower-is-better metric."""
    if base <= 0:
        return 0.0
    return 100.0 * (cur - base) / base


class Gate:
    def __init__(self, fail_pct, warn_pct, gate_rates=False):
        self.fail_pct = fail_pct
        self.warn_pct = warn_pct
        self.gate_rates = gate_rates
        self.failures = 0
        self.warnings = 0

    def check(self, name, key, reg_pct, base, cur, better):
        arrow = f"{base:g} -> {cur:g} ({better} is better)"
        if reg_pct > self.fail_pct:
            self.failures += 1
            print(f"FAIL  {name}:{key}  {reg_pct:+.1f}%  {arrow}")
        elif reg_pct > self.warn_pct:
            self.warnings += 1
            print(f"WARN  {name}:{key}  {reg_pct:+.1f}%  {arrow}")
        else:
            print(f"ok    {name}:{key}  {reg_pct:+.1f}%  {arrow}")

    def compare(self, name, base, cur):
        # 1. Correctness booleans: must hold in the fresh run.
        for key in BOOL_KEYS:
            if key in cur:
                if cur[key] is True:
                    print(f"ok    {name}:{key}  true")
                else:
                    self.failures += 1
                    print(f"FAIL  {name}:{key}  expected true, got {cur[key]!r}")

        # 2. Speedups: scale-free, higher is better, always compared. Guard
        #    on numeric values: records also carry arrays (e.g. per_pass
        #    timing breakdowns) that are documentation, not gated metrics.
        for key in sorted(set(base) & set(cur)):
            if "speedup" not in key:
                continue
            if not all(isinstance(r[key], (int, float)) for r in (base, cur)):
                continue
            self.check(name, key, pct_drop(base[key], cur[key]), base[key],
                       cur[key], "higher")

        # 3. Derived compression ratios: lower is better, always compared.
        for num, den in RATIO_PAIRS:
            if den is None:
                continue
            if all(k in r and r.get(den, 0) > 0 for r in (base, cur) for k in (num, den)):
                b = base[num] / base[den]
                c = cur[num] / cur[den]
                self.check(name, f"{num}/{den}", pct_rise(b, c), round(b, 5),
                           round(c, 5), "lower")

        # 4. Small lower-is-better ratios: percentage + absolute slack.
        #    A base at or below zero is gated from zero: otherwise pct_rise
        #    reads 0 and the key could never fail.
        for key in SMALL_RATIO_KEYS:
            if key in base and key in cur:
                floor = max(base[key], 0.0)
                if cur[key] <= floor + SMALL_RATIO_SLACK:
                    reg = 0.0  # inside the absolute noise floor
                elif floor > 0.0:
                    reg = pct_rise(floor, cur[key])
                else:
                    reg = math.inf  # past the slack over a zero floor
                self.check(name, key, reg, base[key], cur[key], "lower")

        # 5. Absolute rates: only meaningful at identical problem sizes on
        #    the same hardware, so gating them is opt-in.
        rate_keys = sorted(k for k in set(base) & set(cur)
                           if k.endswith(RATE_SUFFIXES)
                           and isinstance(base[k], (int, float))
                           and isinstance(cur[k], (int, float)))
        dims_match = (base.get("dims") == cur.get("dims")
                      and base.get("dims") is not None)
        if rate_keys and dims_match and self.gate_rates:
            for key in rate_keys:
                self.check(name, key, pct_drop(base[key], cur[key]),
                           base[key], cur[key], "higher")
        elif rate_keys:
            why = (f"dims {base.get('dims')} != {cur.get('dims')}"
                   if not dims_match else "--gate-rates not set")
            for key in rate_keys:
                print(f"info  {name}:{key}  {base[key]:g} -> {cur[key]:g} "
                      f"(not gated: {why})")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+",
                    help="alternating BASELINE CURRENT json paths")
    ap.add_argument("--fail-pct", type=float, default=15.0,
                    help="regression %% that fails the gate (default 15)")
    ap.add_argument("--warn-pct", type=float, default=5.0,
                    help="regression %% that warns (default 5)")
    ap.add_argument("--gate-rates", action="store_true",
                    help="also gate absolute *_mbps / *_mvox_s rates "
                         "(same-machine baselines only)")
    args = ap.parse_args(argv)
    if len(args.records) % 2 != 0:
        ap.error("records must come in BASELINE CURRENT pairs")
    if args.warn_pct > args.fail_pct:
        ap.error("--warn-pct must not exceed --fail-pct")

    gate = Gate(args.fail_pct, args.warn_pct, args.gate_rates)
    for i in range(0, len(args.records), 2):
        base_path, cur_path = args.records[i], args.records[i + 1]
        base, cur = load(base_path), load(cur_path)
        name = cur.get("benchmark") or base.get("benchmark") or base_path
        if base.get("benchmark") != cur.get("benchmark"):
            print(f"check_bench: {base_path} and {cur_path} record different "
                  f"benchmarks ({base.get('benchmark')!r} vs "
                  f"{cur.get('benchmark')!r})", file=sys.stderr)
            return 2
        gate.compare(name, base, cur)

    print(f"check_bench: {gate.failures} failure(s), {gate.warnings} warning(s) "
          f"(fail >{args.fail_pct:g}%, warn >{args.warn_pct:g}%)")
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
