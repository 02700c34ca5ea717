#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its tiny size, untraced
and traced, must pass its output checks and produce a result line that
matches BENCHMARK.json's metric lists.

    python3 perfbench/tests/smoke_test.py --driver <path to perfbench_driver>
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (perfbench/run.py)

DRIVER = None
WORKLOADS = ("td_rewrite", "ucq_rewrite", "chase_fanout", "chase_tower")


def run_driver(workload, trace, trace_dir, extra=()):
    cmd = [DRIVER, "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--size", "smoke", "--trace-dir",
           trace_dir, *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=False)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def check_report(self, workload, trace):
        done = run_driver(workload, trace, self.tmp.name)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(report["correct"], report["failures"])
        self.assertEqual(report["failed"], 0)
        self.assertGreaterEqual(report["attempted"], 2)  # warm-up + a job
        self.assertEqual(report["workload"], workload)
        for key in ("hw_threads", "cpu_model", "build_type", "compiler"):
            self.assertIn(key, report["fingerprint"])
        for name, m in report["metrics"].items():
            self.assertEqual(set(m) - {"tail_percentile", "tail"},
                             {"value", "unit", "samples"}, name)
            self.assertTrue(math.isfinite(m["value"]), name)
        self.assertEqual(report["metrics"]["fail_ratio"]["value"], 0)
        self.assertGreaterEqual(report["metrics"]["setup_s"]["samples"], 101)

        declared = self.spec["per_layer" if trace else "end_to_end"]
        line = run.result_line(report, declared, trace)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [d["name"] for d in declared])
        for decl in declared:
            m = line["metrics"][decl["name"]]
            self.assertEqual(m, {"value": m["value"], "unit": decl["unit"]})
            if not trace:
                self.assertGreater(m["value"], 0, decl["name"])
        return report

    def test_untraced_reports_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_report(workload, 0)

    def test_traced_reports_layers_self_time_and_overhead(self):
        layer_metric = {"td_rewrite": "frontier.steps",
                        "ucq_rewrite": "rewriting.candidates",
                        "chase_fanout": "snapshot.bytes",
                        "chase_tower": "chase.matches"}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report = self.check_report(workload, 1)
                metrics = report["metrics"]
                self.assertGreater(metrics[layer_metric[workload]]["value"], 0)
                self.assertGreater(metrics["trace.overhead_ratio"]["value"], 0)
                self.assertGreaterEqual(metrics["self.bench_s"]["value"], 0)
                trace_file = Path(self.tmp.name) / f"{workload}.trace.json"
                trace = json.loads(trace_file.read_text())
                self.assertEqual(trace["metadata"]["workload"], workload)
                names = {e["name"] for e in trace["traceEvents"]}
                self.assertIn("bench.job", names)

    def test_same_seed_renders_same_inputs(self):
        # Counts are deterministic functions of the rendered inputs.
        a = self.check_report("ucq_rewrite", 1)["metrics"]
        b = self.check_report("ucq_rewrite", 1)["metrics"]
        for name in ("rewriting.candidates", "rewriting.iterations",
                     "hom.enumerations"):
            self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_compare_flags_different_machines(self):
        report = self.check_report("chase_tower", 0)
        other = json.loads(json.dumps(report))
        other["fingerprint"]["cpu_model"] = "another CPU"
        paths = []
        for i, r in enumerate((report, report, other)):
            path = Path(self.tmp.name) / f"r{i}.json"
            path.write_text(json.dumps(r))
            paths.append(str(path))
        compare = [sys.executable, str(BENCH_DIR / "compare.py")]
        same = subprocess.run(compare + ["--base", paths[0], "--head", paths[1]],
                              capture_output=True, text=True, check=False)
        self.assertEqual(same.returncode, 0, same.stderr)
        self.assertIn("job_ref", same.stdout)
        mixed = subprocess.run(compare + ["--base", paths[0], "--head", paths[2]],
                               capture_output=True, text=True, check=False)
        self.assertEqual(mixed.returncode, 2)
        self.assertIn("FLAGGED", mixed.stdout)

    def test_bad_arguments_exit_without_a_result(self):
        done = run_driver("no_such_workload", 0, self.tmp.name)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")
        done = run_driver("td_rewrite", 0, self.tmp.name, ("--bogus", "1"))
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--driver", required=True)
    args, rest = parser.parse_known_args()
    DRIVER = args.driver
    unittest.main(argv=[sys.argv[0], *rest])
