#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json for one second in smoke mode, untraced
and traced, and checks the result line: every metric the benchmark names is
present with its unit, nothing else is, and failed_share is 0.

    python3 perfbench/test_perfbench.py      (from the repository root)

The first run builds the benchmark (about a minute on 4 cores).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_smoke(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.bench = json.load(handle)

    def check(self, workload, trace, section):
        out = run_smoke(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.bench[section]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        share = re.search(r"^failed_share (\S+)", out.stdout, re.MULTILINE)
        self.assertIsNotNone(share, "no failed_share line")
        self.assertEqual(float(share.group(1)), 0.0)
        return out.stdout

    def test_end_to_end_metrics(self):
        for workload in self.bench["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in self.bench["workloads"]:
            with self.subTest(workload=workload["name"]):
                stdout = self.check(workload["name"], 1, "per_layer")
                self.assertIn("trace.attributed_share", stdout)
                self.assertRegex(stdout, re.compile(r"^host nproc=\d+ build_type=\S+ compiler=",
                                                    re.MULTILINE))


if __name__ == "__main__":
    unittest.main()
