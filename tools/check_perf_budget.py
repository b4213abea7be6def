#!/usr/bin/env python3
"""CI gate for the microbenchmark perf budget.

Runs the bench binaries (google-benchmark JSON output) on exactly
the benchmarks named by the budget file, then checks every ratio
listed there: ``items_per_second(fast) / items_per_second(slow) >=
min_ratio``. Ratios between two benchmarks from the same run are far
more stable on shared CI runners than absolute times, so the budget
gates the *structure* of the hot path (blocked beats naive, a
pre-packed plan beats repack-every-call, the fused quantizer beats
the scalar reference) rather than the machine.

Each check may carry a ``bench`` key naming which binary hosts its
benchmarks (default ``bench_micro_gemm``); pass one ``--bench`` per
binary as ``name=path`` (a bare path means its basename). Checks
whose binary was not supplied are skipped with a note.

Checks may carry ``min_cores``: on a machine with fewer CPU cores
the check is reported as skipped instead of evaluated, because
thread-scaling ratios (pinned 4-thread vs 1-thread runs) measure
only oversubscription there. Skipping is a note, never a failure —
the gate still runs on the CI runners that have the cores.

Exit status is non-zero on any violated check unless --warn-only is
given. Medians over --repetitions runs feed the ratios; both sides
of every pair are printed with their median and coefficient of
variation (google-benchmark's cv aggregate), so a ratio that sits
inside the noise shows as such.

Usage:
  tools/check_perf_budget.py --bench build/bench_micro_gemm \
      --bench bench_micro_quant=build/bench_micro_quant \
      --bench bench_micro_train=build/bench_micro_train \
      [--budget bench/perf_budget.json] [--repetitions 3] [--warn-only]
"""

import argparse
import json
import os
import re
import subprocess
import sys


DEFAULT_BENCH = "bench_micro_gemm"


def load_budget(path):
    with open(path) as f:
        budget = json.load(f)
    checks = budget.get("checks", [])
    if not checks:
        sys.exit(f"error: no checks in budget file {path}")
    for c in checks:
        c.setdefault("bench", DEFAULT_BENCH)
    return checks


def run_bench(bench, names, repetitions):
    # Anchored alternation so e.g. ".../16" does not also match a
    # ".../160" variant added later.
    pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"
    cmd = [
        bench,
        f"--benchmark_filter={pattern}",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=true",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: benchmark run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout)


def aggregate_items_per_second(report, name, aggregate):
    for b in report.get("benchmarks", []):
        if (b.get("run_name") == name
                and b.get("aggregate_name") == aggregate):
            return b["items_per_second"]
    return None


def median_items_per_second(report, name):
    median = aggregate_items_per_second(report, name, "median")
    if median is None:
        sys.exit(f"error: no median aggregate for '{name}' in "
                 "benchmark output — name drift between the bench and "
                 "the budget?")
    return median


def describe_side(report, name, median):
    """Median and coefficient of variation of one side of a pair."""
    cv = aggregate_items_per_second(report, name, "cv")
    spread = "cv n/a" if cv is None else f"cv {100.0 * cv:.1f}%"
    return f"{name}: median {median:.4g}/s, {spread}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", required=True, action="append",
                    help="bench binary as name=path (bare path: name "
                         "is its basename); repeatable")
    ap.add_argument("--budget", default="bench/perf_budget.json")
    ap.add_argument("--repetitions", type=int, default=3)
    ap.add_argument("--warn-only", action="store_true",
                    help="report violations but exit 0")
    args = ap.parse_args()
    if args.repetitions < 2:
        sys.exit("error: --repetitions must be >= 2 (google-benchmark "
                 "emits the median aggregate only for repeated runs)")

    benches = {}
    for spec in args.bench:
        name, sep, path = spec.partition("=")
        if not sep:
            path = spec
            name = os.path.basename(spec)
        benches[name] = path

    checks = load_budget(args.budget)
    # Available cores, not host cores: in a cgroup/affinity-limited
    # container os.cpu_count() reports the host and would run
    # thread-scaling checks that can only measure oversubscription.
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    runnable = []
    for c in checks:
        need = c.get("min_cores", 1)
        bench = c["bench"]
        if cores < need:
            print(f"skip {c['name']}: needs {need} cores, "
                  f"this machine has {cores}")
        elif bench not in benches:
            print(f"skip {c['name']}: bench binary '{bench}' not "
                  f"supplied via --bench")
        else:
            runnable.append(c)
    checks = runnable
    if not checks:
        print("all checks skipped on this machine")
        return 0

    reports = {}
    for bench in sorted({c["bench"] for c in checks}):
        names = sorted(
            {c["fast"] for c in checks if c["bench"] == bench}
            | {c["slow"] for c in checks if c["bench"] == bench})
        reports[bench] = run_bench(benches[bench], names,
                                   args.repetitions)

    failed = []
    for c in checks:
        report = reports[c["bench"]]
        fast = median_items_per_second(report, c["fast"])
        slow = median_items_per_second(report, c["slow"])
        ratio = fast / slow
        ok = ratio >= c["min_ratio"]
        status = "ok  " if ok else "FAIL"
        print(f"{status} {c['name']}: {c['fast']} / {c['slow']} = "
              f"{ratio:.2f}x (budget >= {c['min_ratio']:.2f}x)")
        print(f"       fast {describe_side(report, c['fast'], fast)}")
        print(f"       slow {describe_side(report, c['slow'], slow)}")
        if not ok:
            failed.append(c["name"])

    if failed:
        msg = f"perf budget violated: {', '.join(failed)}"
        if args.warn_only:
            print(f"warning: {msg} (--warn-only, not failing)")
            return 0
        sys.exit(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
