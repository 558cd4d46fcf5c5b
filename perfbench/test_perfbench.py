#!/usr/bin/env python3
"""Tests of the benchmark itself: short runs pass, the checker catches a
planted wrong answer, and the request log is a pure function of the seed.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The first run builds the benchmark (see run.py).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build helper)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(*args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    result = subprocess.run(
        [str(BINARY), "--seconds", "1", *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    return result.returncode, result.stdout.strip().split("\n")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()

    def test_short_run_of_each_workload_passes(self):
        for workload in WORKLOADS:
            for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--seed", "3",
                                        "--trace", trace, "--cycles", "3")
                    result = json.loads(lines[-1])
                    self.assertEqual(code, 0, lines[-2])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), names)
                    stamp = json.loads(lines[0])["stamp"]
                    for key in ("nproc", "compiler", "build_type", "ndebug",
                                "threads", "seed", "commit"):
                        self.assertIn(key, stamp)

    def test_planted_wrong_answer_is_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench("--workload", workload, "--seed", "3",
                                    "--trace", "0", "--cycles", "2",
                                    "--plant-wrong")
                result = json.loads(lines[-1])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_request_log_is_a_function_of_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in WORKLOADS:
                logs = []
                for n, seed in enumerate(("5", "5", "6")):
                    path = Path(tmp) / f"{workload}-{n}.ndjson"
                    code, _ = bench("--workload", workload, "--seed", seed,
                                    "--trace", "0", "--cycles", "2",
                                    "--log", str(path))
                    self.assertEqual(code, 0)
                    logs.append(path.read_bytes())
                with self.subTest(workload=workload):
                    self.assertTrue(logs[0])
                    self.assertEqual(logs[0], logs[1])
                    self.assertNotEqual(logs[0], logs[2])


if __name__ == "__main__":
    unittest.main()
