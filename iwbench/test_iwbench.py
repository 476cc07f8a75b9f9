#!/usr/bin/env python3
"""The benchmark's own tests.

Builds iwbench (as run.py does), runs its C++ unit tests (ground-truth
oracle, seed determinism, traced == untraced records), then runs every
workload at a tiny scale, untraced and traced, and checks that each emits
exactly the metric names and units declared in BENCHMARK.json.

    python3 iwbench/test_iwbench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point's build helper)

TINY_SCALE = {"stateful_http": 12, "sweep_tls_capped": 12, "spill_merge": 14}


def manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class IwbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.directory = run.build_dir()
        cls.binary = run.build(cls.directory, ("iwbench", "iwbench_test"))

    def test_unit_tests(self):
        with tempfile.TemporaryDirectory(dir=self.directory) as work:
            result = subprocess.run([os.path.join(self.directory, "iwbench_test")],
                                    capture_output=True, text=True, check=False,
                                    env=dict(os.environ, TEST_TMPDIR=work))
        self.assertEqual(result.returncode, 0, result.stdout[-4000:] + result.stderr)

    def test_workloads_emit_declared_metrics(self):
        declared = manifest()
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))
        expected = {
            0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]},
        }
        with tempfile.TemporaryDirectory(dir=self.directory) as work:
            for workload in run.WORKLOADS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, trace=trace):
                        result = subprocess.run(
                            [self.binary, "--workload", workload, "--seconds", "0.01",
                             "--trace", str(trace), "--scale", str(TINY_SCALE[workload]),
                             "--work-dir", work],
                            capture_output=True, text=True, check=False)
                        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
                        line = json.loads(result.stdout.strip().splitlines()[-1])
                        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(line["correct"])
                        self.assertEqual(line["failed"], 0)
                        self.assertGreater(line["attempted"], 0)
                        got = {name: m["unit"] for name, m in line["metrics"].items()}
                        self.assertEqual(got, expected[trace])

    def test_usage_errors_exit_nonzero(self):
        for args in (["--workload", "nope"], ["--workload", "stateful_http", "--trace", "2"],
                     ["--seconds", "1"]):
            with self.subTest(args=args):
                result = subprocess.run([self.binary] + args, capture_output=True,
                                        text=True, check=False)
                self.assertEqual(result.returncode, 2)
                self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
