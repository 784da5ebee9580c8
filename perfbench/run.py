#!/usr/bin/env python3
"""End-to-end SPERR benchmark: build the benchmark program, run one workload.

    python3 perfbench/run.py --workload snapshot_serial --seed 0 --seconds 30 --trace 0

Run from the repository root. The benchmark program (perfbench/*.cpp) and the
library (src/) are built with CMake in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; build output goes to stderr. The program's
stdout is passed through unchanged: "# " detail lines, then one JSON result
line. The exit code is the program's (non-zero when any output failed its
check), or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "sperr_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "sperr_perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
