#!/usr/bin/env python3
"""Steadiness check for the control-loop benchmark.

Runs two sets of runs of the same build, each run with its own seed, and
prints for every workload and end-to-end metric each set's median and
quartiles, the spread (quartile distance over median) of each set, and
whether the two sets agree within the metric's bound from BENCHMARK.json:
each set's spread within the bound, and the two medians no further apart
than the bound (as a share of the first), in either direction.

    python3 perfbench/steadiness.py                 # 2 x 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads fleet_ingest

Exits 1 if any run fails or any metric disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    metrics = bench["end_to_end"]

    ok = True
    for workload in args.workloads:
        sets = []
        for first_seed in (1, 1001):
            runs = [run_once(workload, first_seed + i, args.seconds) for i in range(args.runs)]
            sets.append(runs)
            failed = {(r["failed"], r["attempted"]) for r in runs}
            shares = {f / a for f, a in failed}
            print(f"{workload} set seeds {first_seed}..{first_seed + args.runs - 1}: "
                  f"failed share {sorted(shares)}", flush=True)
        print(f"\n{workload}  (runs per set: {args.runs}, {args.seconds} s each)")
        print(f"{'metric':<20} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median if median else 0.0
                medians.append(median)
                steady = spread <= bound
                ok = ok and steady
                print(f"{name:<20} {index + 1:>3} {q1:>12.4f} {median:>12.4f} {q3:>12.4f} "
                      f"{spread:>8.2%} {bound:>6.2f}  {'ok' if steady else 'SPREAD > BOUND'}")
            moved = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            agree = abs(moved) <= bound
            ok = ok and agree
            print(f"{name:<20} {'':>3} second median {moved:+.2%} vs first: "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
