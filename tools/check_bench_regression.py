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

A baseline recorded in one run on one host state drifts with the host, so
the paired mode compares two builds in the same job instead: it runs each
suite of a parent build and of a change build back to back, ROUNDS times,
and compares each guarded cell's fastest run in the two builds against the
same bound. Each run works in a fresh temporary directory, so the
checked-in BENCH_micro.json is not touched.

Usage:
  python3 tools/check_bench_regression.py \
      --baseline BENCH_micro.json --candidate /tmp/bench/BENCH_micro.json \
      [--threshold 0.20] [--suite micro_rpc] \
      [--guard BM_EventDispatch --guard BM_RpcRoundTrip]
  python3 tools/check_bench_regression.py \
      --paired PARENT_BUILD_DIR CHANGE_BUILD_DIR \
      [--threshold 0.20] [--suite ...] [--guard ...]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

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


# Paired mode: runs of each build. On a shared 4-core host, a build paired
# against itself read its guarded cells' fastest runs at most +9% apart over
# 9 rounds, but up to +22% over 5, and the medians of 9 up to +38%; a
# Node::pack slowdown of about 30% read +24% and +34% on BM_Pack/42.
ROUNDS = 9


def load_suite(path, suite):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if suite not in document:
        sys.exit(f"error: no '{suite}' suite in {path}")
    return document[suite]


# The binary that records each suite, under a build directory.
SUITE_BINARIES = {
    "micro_rpc": "bench/bench_micro_rpc",
    "micro_datamodel": "bench/bench_micro_datamodel",
}


def run_suite(build_dir, suite, guards):
    """ns/op of the guarded cells in one run of `suite`'s binary."""
    binary = os.path.join(os.path.abspath(build_dir), SUITE_BINARIES[suite])
    pattern = "|".join("^" + re.escape(guard) for guard in guards)
    command = [binary, "--benchmark_filter=" + pattern]
    with tempfile.TemporaryDirectory() as workdir:
        run = subprocess.run(command, cwd=workdir, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit(f"error: {binary} exited with {run.returncode}:\n"
                     f"{run.stderr}")
        cells = load_suite(os.path.join(workdir, "BENCH_micro.json"), suite)
    return {name: float(entry["ns_per_op"]) for name, entry in cells.items()}


def paired(args, suites):
    """Run parent and change alternately; compare each cell's fastest run."""
    parent_dir, change_dir = args.paired
    samples = {}  # (suite, name) -> {"parent": [...], "change": [...]}
    for round_index in range(ROUNDS):
        # Swap which build runs first each round, so neither always runs
        # on a host the other has just warmed.
        order = [("parent", parent_dir), ("change", change_dir)]
        if round_index % 2:
            order.reverse()
        for suite in suites:
            guards = args.guard or DEFAULT_GUARDS.get(suite, [])
            for side, build_dir in order:
                for name, ns in run_suite(build_dir, suite, guards).items():
                    slot = samples.setdefault((suite, name),
                                              {"parent": [], "change": []})
                    slot[side].append(ns)
        print(f"  round {round_index + 1}/{ROUNDS} done", flush=True)

    failures = []
    checked = 0
    for (suite, name), slot in sorted(samples.items()):
        if not slot["parent"]:
            continue  # the parent has no such cell: nothing to compare
        checked += 1
        if len(slot["change"]) != len(slot["parent"]):
            failures.append(f"{suite}/{name}: missing from the change build")
            continue
        # Other load on the host only ever adds time, so the fastest of a
        # build's runs is its steadiest estimate (see ROUNDS).
        parent_ns = min(slot["parent"])
        change_ns = min(slot["change"])
        ratio = change_ns / parent_ns if parent_ns > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSED"
            failures.append(
                f"{suite}/{name}: fastest {parent_ns:.0f} ns/op -> "
                f"{change_ns:.0f} ns/op ({(ratio - 1.0) * 100.0:+.1f}%, "
                f"limit +{args.threshold * 100.0:.0f}%)")
        print(f"  {suite}/{name}: fastest {parent_ns:.0f} -> {change_ns:.0f} "
              f"ns/op ({(ratio - 1.0) * 100.0:+.1f}%) {status}")
    return report(failures, checked, args.threshold, "paired ")


def report(failures, checked, threshold, mode=""):
    if checked == 0:
        sys.exit("error: no guarded benchmarks found")
    if failures:
        print(f"\n{mode}bench regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{mode}bench regression check passed ({checked} benchmarks "
          f"within +{threshold * 100.0:.0f}%)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="checked-in BENCH_micro.json")
    parser.add_argument("--candidate",
                        help="freshly generated BENCH_micro.json")
    parser.add_argument("--paired", nargs=2,
                        metavar=("PARENT_BUILD_DIR", "CHANGE_BUILD_DIR"),
                        help="run both builds' micro benches alternately "
                             "instead of reading two files")
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
    suites = args.suite or list(DEFAULT_GUARDS)
    if args.paired:
        return paired(args, suites)
    if not args.baseline or not args.candidate:
        parser.error("give --baseline and --candidate, or --paired")

    failures = []
    checked = 0
    for suite in suites:
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

    return report(failures, checked, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
