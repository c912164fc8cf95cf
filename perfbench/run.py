#!/usr/bin/env python3
"""Builds and runs the FTC repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the FTC library from ../src and the driver in perfbench/ with CMake
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset. Then runs the driver, checks that its result line
names exactly the metrics BENCHMARK.json declares for the requested trace
mode, with their units, and prints that line as the last line of stdout.

Exits non-zero without printing a result when the build fails, the driver
crashes or times out, or the result does not match BENCHMARK.json. When a
correctness check fails the driver's result line (correct: false) is
printed and the exit code is 1.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170  # Each run must end within 180 s.


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "ftc_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(binary, argv):
    start = time.monotonic()
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default=None,
                        help="self-test: corrupt one expectation so its check fires")
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    binary = build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        argv += ["--corrupt", args.corrupt]
    code, out = run_driver(binary, argv)

    lines = out.strip().splitlines()
    if not lines:
        fail(f"driver exited {code} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver exited {code}; last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} extra={extra} "
             f"wrong_unit={wrong}")
    if code != 0 and result["correct"]:
        fail(f"driver exited {code}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
