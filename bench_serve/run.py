#!/usr/bin/env python3
"""Builds bench_serve from source and runs one workload of it.

    python3 bench_serve/run.py --workload explore --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), the cached corpus and the run's scratch files under it. The
last stdout line is bench_serve's JSON result; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures the repository's top-level project with the benchmark
    added and builds the benchmark and the server (a no-op when nothing
    changed)."""
    steps = [
        ["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_PROJECT_qdcbir_INCLUDE=" +
         os.path.join(HERE, "project_include.cmake")],
        ["cmake", "--build", build_dir, "--parallel", "4", "--target",
         "bench_serve", "qdcbir_tool"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "replay", "wide", "observed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("bench_serve: build failed", file=sys.stderr)
        return 1
    command = [
        os.path.join(build_dir, "bench_serve", "bench_serve"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--server=" + os.path.join(build_dir, "tools", "qdcbir_tool"),
        "--cache-dir=" + os.path.join(build_dir, "bench_cache"),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
