#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds perfbench/ (the
slugger library as the repository's CMakeLists.txt defines it, plus the
slugbench program) in Release mode under $CARGO_TARGET_DIR, default
.bench_build, then runs slugbench for one workload and checks its answers.

stdout carries a readable report (every metric with its unit and sample
count; in a traced run also each layer's self time and the tracing
overhead) and, as its last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set of the traced run. The exit code is 0 only when every answer
was correct. The work counts of a build (cost, merges, merge evaluations,
file bytes and file hash) must repeat exactly for a seed: they are kept
under the build directory per slugbench binary and compared on every
later run of the same seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXACT_KEYS = ("cost", "merges", "evaluations", "file_bytes", "file_hash")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds slugbench; returns its path or None."""
    start = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "slugbench",
                  "-j", "4"])
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(cmd))
            return None
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "slugbench")
    return binary if os.path.exists(binary) else None


def check_exact(build_dir, binary, workload, seed, exact):
    """Compares the build's work counts with earlier runs of this seed."""
    with open(binary, "rb") as f:
        tag = hashlib.sha256(f.read()).hexdigest()[:16]
    folder = os.path.join(build_dir, "exact", tag)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-seed%d.json" % (workload, seed))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(exact, f)
        return []
    with open(path) as f:
        earlier = json.load(f)
    problems = []
    for key in EXACT_KEYS:
        a, b = earlier.get(key), exact.get(key)
        if key == "evaluations" and (not a or not b):
            continue  # only traced runs count merge evaluations
        if a != b:
            problems.append("%s is %s, an earlier run of this seed had %s"
                            % (key, b, a))
    if not earlier.get("evaluations") and exact.get("evaluations"):
        with open(path, "w") as f:
            json.dump(exact, f)
    return problems


def report(result, trace):
    lines = ["workload %s, seed %d: %d operations, %d failed"
             % (result["workload"], result["seed"], result["attempted"],
                result["failed"])]
    for failure in result["failures"]:
        lines.append("  FAILED " + failure)
    lines.append("exact counts: " + json.dumps(result["exact"]))
    section = "per_layer" if trace else "end_to_end"
    lines.append(section.replace("_", "-") + " metrics (value unit, samples):")
    for name, m in result[section].items():
        lines.append("  %-34s %14.6g %-6s n=%d"
                     % (name, m["value"], m["unit"], m["samples"]))
    if trace:
        layer = result["per_layer"]
        lines.append("self time by layer (traced operations only):")
        for name, m in layer.items():
            if name.endswith(".self_s"):
                lines.append("  %-10s %10.4f s" % (name[:-len(".self_s")],
                                                   m["value"]))
        lines.append("tracing overhead: traced / untraced operation time = "
                     "%.4f over %d operations"
                     % (layer["trace.overhead_ratio"]["value"],
                        layer["trace.overhead_ratio"]["samples"]))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        return 2

    tmpdir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmpdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("slugbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("slugbench exited %d without a result" % proc.returncode)
        return 3

    # A failed run's counts are not trusted, so they are neither kept nor
    # compared.
    problems = []
    if proc.returncode == 0:
        problems = check_exact(build_dir, binary, args.workload, args.seed,
                               result["exact"])
    for p in problems:
        result["failures"].append("exact count: " + p)
    failed = result["failed"] + len(problems)
    result["failed"] = failed
    correct = proc.returncode == 0 and failed == 0

    print(report(result, args.trace))
    section = result["per_layer" if args.trace else "end_to_end"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in section.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
