#!/usr/bin/env python3
"""The benchmark's own tests: quick runs of every workload, the checker
self-test, the result line's shape, and the refusal to run without the
library sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    def test_quick_mode_passes_every_check(self):
        proc = run([RUN, "--quick"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("checker self-test: ok", proc.stdout)
        for workload in ("metro-replay", "fleet-session", "etsi-serve"):
            for trace in ("0", "1"):
                self.assertRegex(proc.stdout,
                                 r"quick %s\s+trace %s: ok" % (workload, trace))

    def test_result_line_carries_every_declared_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run([RUN, "--workload", "etsi-serve", "--seed", "3",
                        "--seconds", "1", "--trace", str(trace)])
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in spec[key]})
            for metric in spec[key]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                 metric["unit"])

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["perfbench/run.py", "--workload", "metro-replay",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
