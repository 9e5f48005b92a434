#!/usr/bin/env python3
"""Build and run the appliance benchmark for one workload.

    python3 appbench/run.py --workload udp_small --seed 1 --seconds 10 --trace 0

Builds appbench/ (and the library it links, from src/) with CMake into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset; runs the benchmark's self-tests; then runs the workload with the
offered rates and latency limit fixed in appbench/workloads.json.

The measuring time is split over PROCESSES fresh processes, and each
metric is the median over them. Each process measures several fresh
appliances in turn: an appliance's speed depends on the allocator state
it starts in, so each appliance is one sample of it.

Build and self-test output go to standard error; the processes'
diagnostic lines go to standard output, followed by one JSON line with
the combined result. Exits non-zero, printing no result, when the build,
a self-test or any process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROCESSES = 7


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    rates = config["workloads"].get(args.workload)
    if rates is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"known: {', '.join(config['workloads'])}")

    out = build_dir()
    try:
        build(out)
        subprocess.run([os.path.join(out, "appbench_selftest")], check=True,
                       stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"run.py: build or self-test failed: {e}")

    results = []
    for i in range(PROCESSES):
        cmd = [os.path.join(out, "appbench"),
               "--workload", args.workload,
               "--seed", str(args.seed * 100 + i),
               "--seconds", str(args.seconds / PROCESSES),
               "--trace", str(args.trace),
               "--low", str(rates["low_pps"]),
               "--high", str(rates["high_pps"]),
               "--over", str(rates["over_pps"]),
               "--p99-limit-us", str(rates["p99_limit_us"])]
        try:
            done = subprocess.run(
                cmd, timeout=RUN_TIMEOUT_S / PROCESSES,
                stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: {args.workload} process {i} timed out")
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{i}] {line}")
        if done.returncode != 0 or not lines:
            sys.exit(f"run.py: {args.workload} process {i} failed "
                     f"(exit {done.returncode})")
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
