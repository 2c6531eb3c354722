#!/usr/bin/env python3
"""Run-to-run spread of the benchmark across seeds.

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20
    python3 bench/spread.py --workloads chain-oracle --seeds 1 2 3 --trace 1

Runs bench/run.py once per workload and seed, one process at a time, and
prints for every metric the median, the quartiles (statistics.quantiles
with n=4) and the quartile spread as a share of the median.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from run import NAMES, run_one


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(NAMES))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            try:
                result = run_one(name, seed, args.seconds, args.trace)
            except RuntimeError as err:
                print(err, file=sys.stderr)
                return 1
            runs.append(result)
        print(f"{name}: {len(runs)} runs, correct "
              f"{all(r['correct'] for r in runs)}, failed/attempted "
              + " ".join(f"{r['failed']}/{r['attempted']}" for r in runs))
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:28s} median {med:12.6g} {unit:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
