#!/usr/bin/env python3
"""Run every workload repeatedly and report each metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                    [--workloads paper_trials,traffic_idm]

Each run is `perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` with a new seed (first-seed, first-seed + 1, ...; a second set
continues the seeds). Per set, workload and metric the script prints the
median, the first and third quartiles (statistics.quantiles(n=4)), the
spread (Q3 - Q1) / median and the bound from BENCHMARK.json. A spread under
a third of the bound is marked "ok", a wider one "TOO WIDE". setup_s is one
cold measurement per run, so its spread is printed but not judged; what is
judged for it, as for every metric, is the median. With --sets 2 or more,
each later set's median is compared with the first set's: a median worse by
more than the bound is marked "MOVED". The share of failed operations must be
identical in every run of every set. The script exits with 1 when anything is
not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    steady = True
    first_medians = {}
    shares = {w: set() for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for workload in workloads:
            results = []
            for _ in range(args.runs):
                result, wall = run_once(workload, seed, bench["run_seconds"])
                results.append(result)
                print(f"  set {s + 1} {workload} seed {seed} ({wall:.1f} s): {json.dumps(result)}",
                      file=sys.stderr, flush=True)
                seed += 1
            shares[workload] |= {r["failed"] / r["attempted"] for r in results}
            wrong = sum(1 for r in results if not r["correct"])
            print(f"set {s + 1} {workload}: {args.runs} runs, failed share "
                  f"{sorted(shares[workload])}, incorrect runs {wrong}")
            if len(shares[workload]) != 1 or wrong:
                steady = False
            print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
                  f"{'moved':>7} {'bound':>6}  verdict")
            for name, spec in specs.items():
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                verdicts = []
                if name != "setup_s":
                    verdicts.append("ok" if spread < spec["bound"] / 3 else "TOO WIDE")
                moved = ""
                if s == 0:
                    first_medians[(workload, name)] = med
                else:
                    change = med / first_medians[(workload, name)] - 1
                    worse = change if spec["better"] == "lower" else -change
                    moved = f"{change:+.3f}"
                    verdicts.append("MOVED" if worse > spec["bound"] else "median ok")
                if any(v in ("TOO WIDE", "MOVED") for v in verdicts):
                    steady = False
                print(f"  {name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                      f"{moved:>7} {spec['bound']:>6}  {', '.join(verdicts) or '-'}")
            sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("error: run from the repository root (BENCHMARK.json not found)")
    sys.exit(main())
