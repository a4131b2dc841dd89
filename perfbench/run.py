#!/usr/bin/env python3
"""Control-loop benchmark: builds perfbench_loop from this checkout's
sources (into .bench_build/perfbench) and runs one workload in its own
process.

    python3 perfbench/run.py --workload remote_sched --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_loop")
WORKLOADS = ("remote_sched", "fleet_ingest", "ue_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_loop", "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"run failed: {error}", 1)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result line", 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
