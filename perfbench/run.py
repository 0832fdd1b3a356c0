#!/usr/bin/env python3
"""Builds and runs the AXML benchmark.

    python3 perfbench/run.py --workload fleet_read --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild only what
changed. The benchmark binary prints a metrics table and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 it also writes a Chrome trace-event file next to the build.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_read", "fleet_churn", "catalog_query")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(out_dir):
    """Configures once, then builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                          universal_newlines=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
