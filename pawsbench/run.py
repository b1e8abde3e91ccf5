#!/usr/bin/env python3
"""pawsbench entry point: build pawsd and the benchmark, then run one workload.

    python3 pawsbench/run.py --workload cold-pipeline|hot-repeat|optimal-oracle
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a Release
tree under .bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check it.
Build output goes to stderr; stdout carries the benchmark report, whose last
line is the JSON result. Exits non-zero, printing no result, when the paws
sources are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-pipeline", "hot-repeat", "optimal-oracle")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "pawsd",
         "pawsbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.abspath(os.path.join(ROOT, base))
    build_dir = os.path.join(base, "pawsbench")
    if not build(build_dir):
        print("pawsbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        os.path.join(build_dir, "pawsbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pawsd", os.path.join(build_dir, "pawsd"),
        "--root", ROOT,
        "--state", os.path.join(base, "pawsbench-state"),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
