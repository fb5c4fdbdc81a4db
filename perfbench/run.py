#!/usr/bin/env python3
"""Build the program in Release and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build lives under $CARGO_TARGET_DIR (default .bench_build): a
Release configure of the repository root with this directory added
through CMAKE_PROJECT_INCLUDE, building only the benchmark executable.
Build output goes to stderr. The last line of stdout is the result JSON:
the executable's counts and metric values, with each metric's unit taken
from BENCHMARK.json, which also lists the metrics a run must print
(--trace 0: end_to_end; --trace 1: per_layer, where a layer the workload
does not exercise reads 0). With --trace 1 the spans are written to
<build root>/traces/<workload>-seed<n>.json (Chrome trace-event format).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_trials", "highway_scale", "beacon_intersection", "traffic_idm")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the benchmark; returns the executable path."""
    configure = [
        "cmake", "-S", ".", "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Release",
        "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake"),
    ]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "eblnet_perfbench", "-j", jobs]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench", "eblnet_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that every correctness check rejects a wrong value")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("error: run from the repository root (no CMakeLists.txt and src/ here)",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_root, "cmake"))
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "work")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_root, "traces", f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    unlisted = sorted(set(values) - {m["name"] for m in listed})
    if unlisted or (not args.trace and len(values) != len(listed)):
        print(f"error: metrics {unlisted or sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
