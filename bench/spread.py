#!/usr/bin/env python3
"""Run two sets of runs of the benchmark per workload, back to back, each
run with another seed (1 to --runs in both sets).  For each end-to-end
metric it reports each set's median and run-to-run spread, the distance
between the first and third quartile of its values as a share of their
median (``statistics.quantiles(values, n=4)``), and how much worse the
second median is than the first, as a share of the first.  With
``--traced N`` it also makes N traced runs per workload and reports the
tracing overhead, the traced run's throughput against the untraced one.

    python3 bench/spread.py --runs 10 [--workloads canon,cli] [--traced 2]

Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(name for name, _ in spec.WORKLOADS))
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = parser.parse_args()
    seeds = range(1, args.runs + 1)
    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 worse by | bound |")
    print("|---|---|---:|---:|---:|---:|---:|---:|")
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, seed, 0) for seed in seeds] for _ in range(SETS)]
        runs = [r for results in sets for r in results]
        assert all(r["correct"] for r in runs), f"{workload}: a run reported wrong answers"
        for name, unit, better, bound in spec.END_TO_END:
            cells = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                print(workload, name, " ".join(f"{v:.4g}" for v in values), file=sys.stderr)
                median, share = spread(values)
                cells += [f"{median:.4g} {unit}", f"{share:.1%}"]
            first, second = (statistics.median(r["metrics"][name]["value"] for r in results)
                             for results in sets)
            worse = (second - first if better == "lower" else first - second) / first
            print(f"| {workload} | {name} | {' | '.join(cells)} | {worse:+.1%} | {bound:.0%} |")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"| {workload} | failed/attempted | {', '.join(shares)} | | | | | |")
        if args.traced:
            traced = [run_once(workload, seed, 1) for seed in list(seeds)[: args.traced]]
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            slow = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in traced)
            print(f"| {workload} | tracing overhead | {plain / slow - 1:.1%} | | | | | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
