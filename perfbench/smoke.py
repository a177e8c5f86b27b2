"""Smoke tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

They run every workload at its minimum length (the untimed prefix and one
timed operation), so they check the plumbing and the output checks, not
performance.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
from run import PREFIX_OPS  # noqa: E402

MIN_SECONDS = "0.001"
SEED = 5  # not the default seed, so only the output checks can catch a fault


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {item["name"]: item["unit"] for item in json.load(handle)[section]}


def digest_line(stdout):
    return next(line for line in stdout.splitlines() if line.strip().startswith("digest"))


class SmokeTest(unittest.TestCase):
    def test_every_workload_at_minimum_length(self):
        expected = declared("end_to_end")
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench("--workload", workload, "--seed", str(SEED),
                                     "--seconds", MIN_SECONDS, "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], PREFIX_OPS[workload])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        expected = declared("per_layer")
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench("--workload", workload, "--seed", str(SEED),
                                     "--seconds", MIN_SECONDS, "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_same_seed_same_digest(self):
        runs = [bench("--workload", "fedosov-star", "--seed", str(seed),
                      "--seconds", MIN_SECONDS)[0] for seed in (SEED, SEED, SEED + 1)]
        first, again, other = (digest_line(proc.stdout) for proc in runs)
        self.assertEqual(first, again)
        self.assertNotEqual(first.split()[1], other.split()[1])

    def test_default_seed_digest_matches_record(self):
        proc, result = bench("--workload", "quotient-star", "--seconds", MIN_SECONDS)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("matches the recorded value", digest_line(proc.stdout))

    def test_corrupted_output_counts_as_failure(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                timed_op = str(PREFIX_OPS[workload])
                proc, result = bench("--workload", workload, "--seed", str(SEED),
                                     "--seconds", MIN_SECONDS, "--corrupt-op", timed_op)
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as empty:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
            shutil.copytree(BENCH_DIR, os.path.join(empty, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("--workload", "fedosov-star", "--seconds", MIN_SECONDS,
                                 cwd=empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
