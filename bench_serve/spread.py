#!/usr/bin/env python3
"""Run-to-run spread of the serve benchmark's end-to-end metrics.

    python3 bench_serve/spread.py [--runs 10] [--seconds 25] [--first-seed 1]
                                  [--workloads explore,replay,wide,observed]

Runs bench_serve/run.py once per seed per workload (seeds first-seed ..
first-seed+runs-1) from the repository root and prints, for every metric,
the median and the quartile spread (Q3 - Q1) / median as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="explore,replay,wide,observed")
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print("%s seed %d failed" % (workload, seed))
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs in %.0f s" % (workload, args.runs,
                                          time.monotonic() - started))
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name, 0.0)
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print("%-9s %-28s median %12.6g  spread %6.3f  bound %.3f%s" %
                  (workload, name, median, spread, bound,
                   "  OVER" if bound and spread > bound / 3 else ""))
            if args.values:
                print("    " + " ".join("%.4g" % v for v in series))
        sys.stdout.flush()
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
