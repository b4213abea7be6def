#!/usr/bin/env python3
"""Serving benchmark of mixq: one command per workload.

Builds perfbench_serve (and the mixq library it links) from source into
.bench_build/ at the root of the checkout, runs one workload, adds the
set-up memory figure from separate probe processes, checks that the
metrics printed are exactly the ones BENCHMARK.json declares, and
prints one JSON result line last:

    python3 perfbench/run.py --workload cnn-poisson --seed 1 \
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(spans are written to .bench_build/work/spans-<workload>.tsv).
Workloads and the metric map are described in perfbench/METRICS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench_serve")

BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170  # whole command, build excluded
RSS_PROBES = 3


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build; stdout/stderr of the build go to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_serve",
         "-j", "4"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], r.returncode))


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % args.workload)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        fail("perfbench_serve exited %d" % r.returncode)
    return json.loads(lines[-1])


def rss_mb(workload, deadline):
    """Median VmHWM of processes that only load, start and warm up."""
    values = []
    for _ in range(RSS_PROBES):
        try:
            r = subprocess.run(
                [BINARY, "--rss-probe", "--workload", workload,
                 "--workdir", WORK_DIR],
                stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            fail("rss probe did not finish in time")
        if r.returncode != 0:
            fail("rss probe exited %d" % r.returncode)
        values.append(float(r.stdout.split()[-1]))
    print("info rss_mb probes=%s" % values)
    return statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    names = declared_metrics(args.trace)
    build()
    deadline = time.time() + RUN_DEADLINE_S
    os.makedirs(WORK_DIR, exist_ok=True)
    result = run_binary(args, deadline)
    metrics = result["metrics"]
    if not args.trace:
        metrics["rss_mb"] = {"value": rss_mb(args.workload, deadline),
                             "unit": "MB"}
    if sorted(metrics) != sorted(names):
        fail("printed metrics differ from BENCHMARK.json: missing %s, "
             "extra %s" % (sorted(set(names) - set(metrics)),
                           sorted(set(metrics) - set(names))))
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
