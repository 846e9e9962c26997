#!/usr/bin/env python3
"""The benchmark's own test: every workload in its reduced-size mode.

    python3 perfbench/test_bench.py

For each workload (those BENCHMARK.json names and warm_templates, which
runs by hand) it runs run.py --small with --trace 0 and --trace 1 and
checks the decision check passed (correct, no failed operation), that the
last stdout line carries exactly the end-to-end (resp. per-layer) metrics
BENCHMARK.json names, each with its unit, that the labeler tier shares sum
to 1, and that the traced run wrote its span file.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_templates", "adhoc_text", "churn_rollout"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])

    def test_workloads(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(WORKLOADS))
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=0):
                _, result = run(name, 0)
                self.check(result, self.spec["end_to_end"])
                for metric in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)
            with self.subTest(workload=name, trace=1):
                out, result = run(name, 1)
                self.check(result, self.spec["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                shares = sum(metrics[f"engine.label.{t}_share"]
                             for t in ("frozen", "chunk", "locked", "novel",
                                       "stateless"))
                self.assertAlmostEqual(shares, 1.0, places=6)
                self.assertIn("trace.accounted_share", metrics)
                self.assertIn("trace.overhead_share", metrics)
                span_lines = [l for l in out.splitlines() if l.startswith("spans:")]
                self.assertTrue(span_lines)
                path = span_lines[-1].split(" written to ")[1].split(" (")[0]
                with open(path) as f:
                    names = {json.loads(l).get("name") for l in f}
                self.assertIn("request", names)
                self.assertIn("replay.submit", names)
                if name == "churn_rollout":
                    self.assertIn("session", names)
                    self.assertIn("swap.publish", names)


if __name__ == "__main__":
    unittest.main()
