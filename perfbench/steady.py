#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of runs against the bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads train,generate]
        [--seconds S] [--out results.json]

Runs every workload `--runs` times with seeds 1..N (set A) and again with
seeds N+1..2N (set B), one run at a time, tracing off. For every end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles, the
spread (third minus first quartile, as a share of the median) against the
metric's bound, and how far set B's median moved from set A's in the
metric's worse direction. It also compares the share of failed operations
between the sets. Bounds are set from this output.

Exit status: 0 when every spread and every drift is within
its bound and the failed shares match, 1 otherwise.
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
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    raw = {}
    ok = True
    for workload in workloads:
        sets = []
        for first_seed in (1, args.runs + 1):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                runs.append(run_once(workload, seed, seconds))
                print(f"  {workload} seed {seed}: done", file=sys.stderr)
            sets.append(runs)
        raw[workload] = sets

        print(f"\n{workload} ({args.runs} runs per set, {seconds} s each)")
        print(f"{'metric':18s} {'set':3s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'drift':>7s}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, runs in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                drift = ""
                if label == "B":
                    worse = (medians[1] - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+7.3f}"
                    ok = ok and worse <= bound
                ok = ok and spread <= bound
                print(f"{name:18s} {label:3s} {median:10.4g} {q1:10.4g} "
                      f"{q3:10.4g} {spread:7.3f} {bound:6.2f} {drift:>7s}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"failed share: A {shares[0]:.6f}  B {shares[1]:.6f}")
        ok = ok and shares[0] == shares[1]

    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
