#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

One run of one workload; the last line of standard output is the result:

    python3 perfbench/run.py --workload rank --seed 1 --seconds 15 --trace 0

Steadiness check: runs a workload N times with seeds 1..N, each for the
run_seconds of BENCHMARK.json, and prints, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py steady --workload browse --runs 5

Run both from the repository root. The build goes to .bench_build/cmake
(configured on first use); run files go to .bench_build and are removed
after each run, except the Chrome trace a traced run writes to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "serve_bench")


def build():
    """Configures (once) and builds serve_bench; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources are not here")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return done.returncode, done.stdout


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    values = {}
    shares = []
    for i in range(args.runs):
        seed = 1 + i
        code, out = run_once(args.workload, seed, seconds, 0)
        result = json.loads(out.strip().splitlines()[-1])
        if code != 0 or not result["correct"]:
            sys.stdout.write(out)
            sys.exit("perfbench: run with seed %d failed" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
    print("\n%s, %d runs of %s s; failed share per run: %s" % (
        args.workload, args.runs, seconds, sorted(set(shares))))
    print("%-16s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "spread/bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-16s %12.5g %12.5g %12.5g %8.4f %6.3f %.2f" % (
            m["name"], med, q1, q3, spread, m["bound"], spread / m["bound"]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        args = p.parse_args(sys.argv[2:])
        build()
        steady(args)
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
