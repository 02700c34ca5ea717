#!/usr/bin/env python3
"""Runs one workload of the engine benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The script builds the benchmark (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload in a process of its own, prints every metric with its unit and
sample count plus the machine fingerprint, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}, holding the end_to_end
metrics of BENCHMARK.json when --trace is 0 and its per_layer metrics when
--trace is 1.  The full report is also written to
<build dir>/../results/<workload>-seed<n>-trace<t>.json, and a traced run's
spans to <build dir>/../traces/<workload>.trace.json.

`--workload all` runs every workload of BENCHMARK.json in turn, each in its
own process, and prints each one's report and result line.

Exit code: 0 when every output check passed; 1 when a check failed (the
result line is still printed) or the benchmark could not be built or run
(no result line).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def build(out):
    if not (out / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", str(out), "--target",
                       "perfbench_driver", "-j", jobs], BUILD_TIMEOUT_S):
        return None
    driver = out / "perfbench_driver"
    return driver if driver.exists() else None


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(report, declared, trace):
    """The result line: the declared metrics, value and unit only.

    A per-layer metric of a layer the workload does not reach is 0; a
    missing end-to-end metric or a unit mismatch is a benchmark bug.
    """
    metrics = {}
    for decl in declared:
        m = report["metrics"].get(decl["name"])
        if (m is None and not trace) or (m and m["unit"] != decl["unit"]):
            raise ValueError(f"metric {decl['name']} missing or not in "
                             f"{decl['unit']}")
        metrics[decl["name"]] = {"value": 0.0 if m is None else m["value"],
                                 "unit": decl["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def describe(name, m):
    line = f"metric {name} = {m['value']:.6g} {m['unit']} (median of {m['samples']})"
    if "tail_percentile" in m:
        line += f", p{m['tail_percentile']:g} = {m['tail']:.6g}"
    return line


def run_workload(driver, out, workload, args):
    """Runs one workload in its own process and prints its result."""
    trace_dir = out.parent / "traces"
    results_dir = out.parent / "results"
    trace_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"perfbench: driver exited with {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    report["fingerprint"]["git_describe"] = git_describe()

    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    for metric, m in sorted(report["metrics"].items()):
        print(describe(metric, m))

    try:
        line = result_line(report, declared_metrics(args.trace), args.trace)
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if report["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run "
                             "each of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out = build_dir()
    driver = build(out)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    return max([run_workload(driver, out, w, args) for w in workloads])


if __name__ == "__main__":
    sys.exit(main())
