#!/usr/bin/env python3
"""CI gate for goodput under overload.

Runs ``bench_serve --overload``, which measures the server's saturated
closed-loop capacity (no admission bound), then offers 3x that rate
open-loop against a bounded queue (maxQueueItems 64, Shed policy) and
prints one JSON object with both rates plus the shed accounting and
the queue high-water mark.

The contract being gated: admission control must protect throughput,
not just memory. Shedding happens at enqueue time and costs a failed
promise, not a forward pass, so the worker stays busy serving the
requests it keeps — goodput (items/s that settle with a value) under
3x overload must stay at or above ``--min-ratio`` (default 0.9) of
the no-overload rate. Two supporting checks: the queue's observed
high-water mark must respect its configured bound (bounded memory
under overload), and shedding must actually have happened (otherwise
the run never reached overload and proves nothing).

Noise policy, mirroring the other perf gates: machines with fewer
than ``--min-cores`` cores (default 4) skip — a box that can barely
run the worker plus the producer measures scheduler luck, not
admission control. ``bench_serve`` runs both phases with a worker
team of one hardware thread fewer than the host has, so the pacing
producer never preempts a team member and stalls the team's
barrier.

Usage:
  tools/check_serve_goodput.py --bench build/bench_serve \
      [--seconds 3] [--min-ratio 0.9] [--min-cores 4] [--warn-only]
"""

import argparse
import json
import os
import subprocess
import sys


REQUIRED = [
    "baseline_items_per_second",
    "offered_items_per_second",
    "goodput_items_per_second",
    "submitted",
    "served",
    "shed",
    "expired",
    "queue_peak_items",
    "max_queue_items",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", required=True,
                    help="path to the bench_serve binary")
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="overload phase duration")
    ap.add_argument("--min-ratio", type=float, default=0.9,
                    help="goodput / baseline floor")
    ap.add_argument("--min-cores", type=int, default=4,
                    help="skip on machines with fewer cores")
    ap.add_argument("--warn-only", action="store_true",
                    help="report violations but exit 0")
    args = ap.parse_args()

    cores = os.cpu_count() or 0
    if cores < args.min_cores:
        print(f"skip: {cores} cores < {args.min_cores} — overload "
              "goodput is not meaningful here")
        return 0

    cmd = [args.bench, "--overload", f"--seconds={args.seconds}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: overload report failed: {' '.join(cmd)}")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        sys.stderr.write(proc.stdout)
        sys.exit(f"error: bad overload-report JSON: {e}")
    missing = [k for k in REQUIRED if k not in report]
    if missing:
        sys.exit(f"error: overload report missing {missing}")

    baseline = report["baseline_items_per_second"]
    offered = report["offered_items_per_second"]
    goodput = report["goodput_items_per_second"]
    ratio = goodput / baseline if baseline > 0 else 0.0

    print(f"baseline {baseline:.0f} items/s, offered {offered:.0f}, "
          f"goodput {goodput:.0f} (ratio {ratio:.3f})")
    print(f"submitted {report['submitted']}, served "
          f"{report['served']}, shed {report['shed']}, expired "
          f"{report['expired']}; queue peak "
          f"{report['queue_peak_items']}/{report['max_queue_items']}")

    failed = []
    if baseline <= 0:
        failed.append("baseline rate is zero — bench broken")
    if ratio < args.min_ratio:
        failed.append(f"goodput ratio {ratio:.3f} < "
                      f"{args.min_ratio} — overload is eating "
                      "throughput, not just queue slots")
    if report["queue_peak_items"] > report["max_queue_items"]:
        failed.append(f"queue peak {report['queue_peak_items']} > "
                      f"bound {report['max_queue_items']} — "
                      "admission control leaked")
    if report["shed"] == 0:
        failed.append("nothing was shed — the run never reached "
                      "overload, gate proves nothing")
    if report["served"] + report["shed"] + report["expired"] != \
            report["submitted"]:
        failed.append("request accounting does not add up — a future "
                      "was lost or double-settled")
    for f in failed:
        print(f"FAIL {f}")
    if not failed:
        print("ok   goodput held under 3x overload, queue bounded")
        return 0
    msg = "serve goodput contract violated"
    if args.warn_only:
        print(f"warning: {msg} (--warn-only, not failing)")
        return 0
    sys.exit(msg)


if __name__ == "__main__":
    sys.exit(main())
