#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload churn --seeds 1-10 \
        [--seconds 10] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time. For every metric it
prints the median of the per-run values and the distance between the first
and third quartile (statistics.quantiles with n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} " +
              " ".join(f"{v['value']:.4g}" for v in result["metrics"].values()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':30} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:30} {median:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
