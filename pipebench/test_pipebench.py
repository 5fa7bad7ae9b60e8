#!/usr/bin/env python3
"""pipebench's own test: every workload at tiny sizes, untraced and traced.

Run from the root of a checkout:

    python3 pipebench/test_pipebench.py

It asserts that each run prints, as its last line, the result object with
exactly the keys correct/attempted/failed/metrics; that every metric
BENCHMARK.json names (end-to-end untraced, per-layer traced) prints with its
unit and a finite value; and that a deliberately perturbed reference answer
makes each workload fail.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class PipebenchTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]),
                            m["name"])

    def test_every_metric_prints_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                proc, result = run(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                proc, result = run(w["name"], 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage"]["value"], 0.95)

    def test_perturbed_reference_fails_the_run(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = run(w["name"], 0, "--perturb-reference")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("check failed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
