#!/usr/bin/env python3
"""Build and run the HyperFile closed-loop benchmark (see README.md here).

    python3 perfbench/run.py --workload tree_inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check --seed 1 --seconds 6

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def step(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.exit(f"perfbench: failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: HyperFile sources (src/) not found beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    step(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD / "hfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check that a seeded link delay shows in the per-layer metrics")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    binary = build()
    cmd = [str(binary), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scratch", str(SCRATCH)]
    if args.self_check:
        cmd.append("--self-check")
    else:
        cmd += ["--workload", args.workload, "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or args.self_check:
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
