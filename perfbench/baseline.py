#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes every metric.

    python3 perfbench/baseline.py --seeds 1-10 [--out perfbench/baseline.json]
                                  [--held-out <seed>]

Run it from the root of a source checkout. For each workload listed in
BENCHMARK.json and each seed it runs perfbench/run.py once, untraced, then
prints per end-to-end metric the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median. With --out it also writes them as JSON, together with
--held-out: a seed kept out of tuning, on which a later claim must also
hold. Any run that fails or reports incorrect answers makes the script
exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "runs": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out")
    parser.add_argument("--held-out", type=int)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    ok = True
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print("%s seed %d FAILED (exit %d)"
                      % (workload, seed, proc.returncode), flush=True)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d ok" % (workload, seed), flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "held_out_seed": args.held_out,
                       "workloads": summary}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
