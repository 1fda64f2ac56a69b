#!/usr/bin/env python3
"""Guard the micro-bench baseline: fail CI when key benchmarks regress.

Compares a freshly generated BENCH_micro.json against the checked-in
baseline and exits non-zero when any guarded benchmark's ns/op grew by
more than the allowed fraction (default 20%). Guarded by default, per
suite: in micro_rpc, the event-loop, periodic-task and RPC round-trip
benches (the stable spine of the simulator; BM_PeriodicTasks covers the
event-slot cancel/rearm path) plus all four cells of the BM_Publish matrix
(batching off or 16 by replication factor 1 or 2, at 2 ranks) — a
regression there means the ingest, batching or replication pipeline got
slower, not just the host noisier; in micro_datamodel, packing and
unpacking the 42-core /proc snapshot, the codec's hot path, plus deep-copying
a tree and unpacking the 6685-child `events` node with string leaves, which
walk every child name and string leaf the Node layout holds. Remaining
entries are recorded for trend-watching but too machine-sensitive to gate
on.

Usage:
  python3 tools/check_bench_regression.py \
      --baseline BENCH_micro.json --candidate /tmp/bench/BENCH_micro.json \
      [--threshold 0.20] [--suite micro_rpc] \
      [--guard BM_EventDispatch --guard BM_RpcRoundTrip]
"""

import argparse
import json
import sys

DEFAULT_GUARDS = {
    "micro_rpc": [
        "BM_EventDispatch",
        "BM_PeriodicTasks",
        "BM_RpcRoundTrip",
        "BM_Publish/batch:0/factor:1/",
        "BM_Publish/batch:16/factor:1/",
        "BM_Publish/batch:0/factor:2/",
        "BM_Publish/batch:16/factor:2/",
    ],
    "micro_datamodel": [
        "BM_Pack/42",
        "BM_Unpack/42",
        "BM_DeepCopy",
        "BM_UnpackEvents/6685",
    ],
}


def load_suite(path, suite):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if suite not in document:
        sys.exit(f"error: no '{suite}' suite in {path}")
    return document[suite]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_micro.json")
    parser.add_argument("--candidate", required=True,
                        help="freshly generated BENCH_micro.json")
    parser.add_argument("--suite", action="append", default=None,
                        help="suite to check (repeatable; default: "
                             f"{', '.join(DEFAULT_GUARDS)})")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional ns/op growth (default 0.20)")
    parser.add_argument("--guard", action="append", default=None,
                        help="benchmark name prefix to guard in every "
                             "checked suite (repeatable; default: the "
                             "suite's own list)")
    args = parser.parse_args()

    failures = []
    checked = 0
    for suite in args.suite or list(DEFAULT_GUARDS):
        guards = args.guard or DEFAULT_GUARDS.get(suite, [])
        baseline = load_suite(args.baseline, suite)
        candidate = load_suite(args.candidate, suite)
        for name, base_entry in sorted(baseline.items()):
            if not any(name.startswith(guard) for guard in guards):
                continue
            if name not in candidate:
                failures.append(f"{suite}/{name}: missing from candidate run")
                continue
            base_ns = float(base_entry["ns_per_op"])
            cand_ns = float(candidate[name]["ns_per_op"])
            ratio = cand_ns / base_ns if base_ns > 0 else float("inf")
            status = "ok"
            if ratio > 1.0 + args.threshold:
                status = "REGRESSED"
                failures.append(
                    f"{suite}/{name}: {base_ns:.0f} ns/op -> "
                    f"{cand_ns:.0f} ns/op ({(ratio - 1.0) * 100.0:+.1f}%, "
                    f"limit +{args.threshold * 100.0:.0f}%)")
            print(f"  {suite}/{name}: {base_ns:.0f} -> {cand_ns:.0f} ns/op "
                  f"({(ratio - 1.0) * 100.0:+.1f}%) {status}")
            checked += 1

    if checked == 0:
        sys.exit("error: no guarded benchmarks found in baseline")
    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nbench regression check passed ({checked} benchmarks "
          f"within +{args.threshold * 100.0:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
