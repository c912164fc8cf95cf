#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds the driver on first use):

    python3 perfbench/tests/test_perfbench.py

* A short run of each workload emits every metric BENCHMARK.json names, in
  both trace modes, and passes its correctness checks.
* Each correctness check fires when the driver corrupts the expectation it
  compares against (--corrupt <check>): the run prints correct=false, names
  the check on stderr, and exits non-zero.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Check name -> a fragment of the message the driver prints when it fires.
MONITOR_CHECKS = {
    "quiesce": "did not quiesce",
    "exactly-once": "exactly once",
    "monitor-count": "Monitor at position",
    "recover": "recover() did not report success",
    "recovered-state": "recovered Monitor store",
}
NAT_CHECKS = {
    "quiesce": "did not quiesce",
    "exactly-once": "does not add up",
    "recover": "recover() did not report success",
    "nat-persistence": "translated 5-tuple changed",
    "nat-store": "recovered MazuNAT store",
}


def run(workload, trace=0, corrupt=None, seed=7):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, result, err = run(workload, trace=trace)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        if workload.startswith("monitor-"):
            self.assertEqual(result["failed"], 0)


class CorruptionTest(unittest.TestCase):
    def check_fires(self, workload, check, message):
        code, result, err = run(workload, corrupt=check)
        self.assertNotEqual(code, 0, f"{check} did not fail the run")
        self.assertIsNotNone(result, err)
        self.assertFalse(result["correct"])
        self.assertIn(message, err)


def add_tests():
    for workload in WORKLOADS:
        slug = workload.replace("-", "_")
        for trace in (0, 1):
            setattr(MetricsTest, f"test_{slug}_trace{trace}_emits_every_metric",
                    lambda self, w=workload, t=trace: self.check_run(w, t))
        checks = NAT_CHECKS if workload.startswith("nat") else MONITOR_CHECKS
        for check, message in checks.items():
            setattr(CorruptionTest, f"test_{slug}_{check.replace('-', '_')}_fires",
                    lambda self, w=workload, c=check, m=message: self.check_fires(w, c, m))


add_tests()

if __name__ == "__main__":
    unittest.main(verbosity=2)
