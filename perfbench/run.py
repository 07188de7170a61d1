#!/usr/bin/env python3
"""Builds and runs the repository benchmark (workloads and metrics: METRICS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload er1c-p4|ring8-p4|cc-p4 \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and compiles the library and perfbench.cpp into
.bench_build/ at the repository root; later runs only rebuild what changed.
Build output goes to standard error. Standard output is the benchmark's
report, whose last line is the JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build"
WORKLOADS = ("er1c-p4", "ring8-p4", "cc-p4")
# A run measures for --seconds plus a few seconds of set-up; a run still
# going after this long is stopped and reported as failed.
RUN_TIMEOUT_S = 170


def build() -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or (args.seed is not None and args.seed < 0):
        parser.error("--seconds must be >= 1 and --seed >= 0")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
