#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py --base A/*.json --head B/*.json

Each file is a report that run.py wrote to .bench_build/results/.  For every
workload and metric present on both sides the script prints each side's
median and quartile spread, the head/base ratio, and how many head runs beat
the base run of the same index (pairs, as in the interleaved procedure of
README.md).  Results whose machine fingerprints differ (hardware threads,
CPU model, build type, compiler) are not comparable: the script flags them
and exits with code 2 instead of reporting ratios.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

MACHINE_KEYS = ("hw_threads", "cpu_model", "build_type", "compiler")


def load(paths):
    runs = defaultdict(list)  # workload -> reports, in argument order
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        runs[report["workload"]].append(report)
    return runs


def machine(report):
    return tuple(report["fingerprint"].get(k) for k in MACHINE_KEYS)


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)

    machines = {machine(r) for runs in (base, head) for rs in runs.values()
                for r in rs}
    if len(machines) > 1:
        print("FLAGGED: results come from different machine fingerprints; "
              "not a regression signal:")
        for m in sorted(machines, key=str):
            print("  " + json.dumps(dict(zip(MACHINE_KEYS, m))))
        return 2

    for workload in sorted(set(base) & set(head)):
        b_runs, h_runs = base[workload], head[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(h_runs)} head runs")
        for name in sorted(set(b_runs[0]["metrics"]) & set(h_runs[0]["metrics"])):
            b = [r["metrics"][name]["value"] for r in b_runs]
            h = [r["metrics"][name]["value"] for r in h_runs]
            b_med, h_med = statistics.median(b), statistics.median(h)
            wins = sum(1 for x, y in zip(b, h) if y < x)
            ratio = h_med / b_med if b_med else float("nan")
            unit = b_runs[0]["metrics"][name]["unit"]
            print(f"  {name:24s} base {b_med:.6g} (spread {spread(b):.3f})  "
                  f"head {h_med:.6g} (spread {spread(h):.3f})  {unit}  "
                  f"head/base {ratio:.3f}  head lower in {wins}/{min(len(b), len(h))} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
