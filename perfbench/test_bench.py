#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds and runs the C++ unit tests (perfbench_tests: the device decorators,
the seeded generators, the histogram's percentile rule, span self time),
then runs every workload briefly through run.py, untraced and traced, and
checks that the result line is well formed, that every gate passed, and
that its metric names are exactly BENCHMARK.json's end_to_end names
(untraced) or per_layer names (traced).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_workload(workload, trace, seconds=2):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests(self):
        out = run.build("perfbench_tests")
        proc = subprocess.run([os.path.join(out, "perfbench_tests")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class ResultLineTests(unittest.TestCase):
    def check(self, workload, trace, expected):
        proc = run_workload(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        self.assertTrue(lines[-2].startswith("# env "), lines[-2])
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        return result["metrics"]

    def test_untraced_names_match_end_to_end(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0, BENCH["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_names_match_per_layer(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, BENCH["per_layer"])
                # Layers a workload skips show no work there.
                if w["name"] == "bank_contended":
                    self.assertEqual(metrics["gc.syncs_per_s"]["value"], 0)
                    self.assertEqual(metrics["store.get_us.p50"]["value"], 0)
                if w["name"] == "restart_cold":
                    self.assertEqual(metrics["serve.subs_per_txn"]["value"], 0)
                if w["name"] == "serve_zipf":
                    self.assertEqual(metrics["restart.recover_ms"]["value"], 0)
                    self.assertGreater(metrics["serve.subs_per_txn"]["value"],
                                       1)

    def test_refuses_to_run_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ has no
        # engine to build: the run must fail without a result line.
        tmp_root = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(tmp_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "bank_contended", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
