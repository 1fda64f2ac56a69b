#!/usr/bin/env python3
"""SOMA simulator benchmark: build, run one workload, check it, report.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the driver into .bench_build/ (the first run compiles the simulator),
runs the workload for the given host-time budget and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The run exits non-zero when the correctness
gate fails: a failed driver check, or at the default seed a digest of the
simulated output that differs from reference.json.

  python3 perfbench/run.py --self-test
      runs the self-tests of the benchmark's own helpers (C++ and Python).
  python3 perfbench/run.py --workload <name> --seed 1 --seconds 1 --trace 0 \\
      --update-reference
      stores the digest of a deliberate recalibration as the new reference.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(benchmark, trace):
    """(name, unit) pairs a run must report, in BENCHMARK.json order."""
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in benchmark[key]]


def evaluate(result, expected, reference_digest):
    """Check a driver result; returns the list of problems (empty = correct)."""
    problems = []
    for check in result.get("checks", []):
        if not check.get("ok"):
            problems.append("check failed: %s (%s)" % (check.get("name"), check.get("detail")))
    if reference_digest is not None and result.get("digest") != reference_digest:
        problems.append("digest %s differs from reference %s"
                        % (result.get("digest"), reference_digest))
    metrics = result.get("metrics", {})
    names = [name for name, _ in expected]
    for name in sorted(set(metrics) - set(names)):
        problems.append("unexpected metric %s" % name)
    for name, unit in expected:
        if not NAME_RE.match(name) or not UNIT_RE.match(unit):
            problems.append("malformed metric %s [%s]" % (name, unit))
        metric = metrics.get(name)
        if metric is None:
            problems.append("missing metric %s" % name)
        elif metric.get("unit") != unit:
            problems.append("metric %s has unit %s, expected %s" % (name, metric.get("unit"), unit))
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            problems.append("metric %s has no finite value" % name)
    return problems


def result_line(correct, attempted, failed, metrics, expected):
    """The benchmark's last output line: metrics in BENCHMARK.json order."""
    ordered = {}
    for name, unit in expected:
        if name in metrics:
            ordered[name] = {"value": metrics[name]["value"], "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": ordered})


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulation.hpp")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build of %s failed" % target)
    return os.path.join(BUILD_DIR, target)


def run_driver(args):
    driver = build("perfbench_driver")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("driver exceeded %d s" % DRIVER_TIMEOUT_S) from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError("driver printed no result") from exc


def run_benchmark(args):
    benchmark = load_json(BENCHMARK_JSON)
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        raise BenchError("unknown workload %s (have %s)" % (args.workload, ", ".join(workloads)))
    result = run_driver(args)
    reference = load_json(REFERENCE_JSON)
    reference_digest = None
    if args.seed == reference["seed"] and not args.update_reference:
        reference_digest = reference["digests"].get(args.workload)
        if reference_digest is None:
            raise BenchError("no reference digest for %s" % args.workload)
    expected = expected_metrics(benchmark, args.trace)
    problems = evaluate(result, expected, reference_digest)

    host = {"compiler": result["build"]["compiler"],
            "build_type": result["build"]["build_type"],
            "cpu": cpu_model(), "nproc": os.cpu_count(), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "digest": result["digest"]}
    print("# host " + json.dumps(host))
    for problem in problems:
        print("# INCORRECT: " + problem)
    if args.update_reference and not problems:
        if args.seed != reference["seed"]:
            raise BenchError("the reference is kept for seed %d" % reference["seed"])
        reference["digests"][args.workload] = result["digest"]
        with open(REFERENCE_JSON, "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
        log("reference digest of %s set to %s" % (args.workload, result["digest"]))
    print(result_line(not problems, result["attempted"], result["failed"],
                      result["metrics"], expected), flush=True)
    return 0 if not problems else 1


def self_test():
    status = subprocess.run([build("perfbench_selftest")]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"], cwd=BENCH_DIR)
    return 0 if status == 0 and tests.returncode == 0 else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return run_benchmark(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        log("perfbench: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
