#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a Release build of the library
sources plus the pimbench driver) into .bench_build/perfbench at the
repository root, runs one workload, checks that the result line carries
exactly the metrics BENCHMARK.json names for the requested mode, and
prints the driver's output. Build output goes to stderr, so the last
line of stdout is the JSON result. Exits non-zero, without printing a
result, when the build fails, the driver fails or times out, or the
result does not match BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170
DEFAULT_SEED = 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "pimbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: driver timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if result is None or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        print(f"run.py: driver failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    names = set(result["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        sys.stderr.write(proc.stdout)
        print(f"run.py: metrics {sorted(names ^ want)} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
