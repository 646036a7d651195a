#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload in BENCHMARK.json with seeds 1..RUNS, each run
measuring for BENCHMARK.json's run_seconds, through e2ebench/run.py. Then
prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles(n=4)) and the relative spread (q3 - q1) / median
against the metric's bound: "steady" below a third of the bound, "within
bound" up to the bound, "TOO WIDE" beyond it. Also counts the runs whose
fixed tail percentile had fewer than ten samples beyond it.

    python3 e2ebench/steadiness.py [--runs 10]

Run from the repository root. Exits 1 when a run fails, reports
correct=false, or a spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, False
    return json.loads(lines[-1]), any("FEWER THAN TEN" in line for line in lines)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        incorrect = 0
        short_tail = 0
        for seed in range(1, args.runs + 1):
            res, short = run_once(workload, seed, bench["run_seconds"])
            if res is None:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            if not res["correct"]:
                incorrect += 1
            short_tail += short
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print("== %s: %d runs, %d reported correct=false, %d had a tail with fewer than ten "
              "samples beyond" % (workload, args.runs, incorrect, short_tail))
        if incorrect:
            ok = False
        print("  %-14s %14s %14s %14s %8s %8s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("  %-14s %14.4f %14.4f %14.4f %8.4f %8.4f  %s" %
                  (name, med, q1, q3, spread, bound, verdict))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
