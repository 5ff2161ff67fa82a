#!/usr/bin/env python3
"""CI gate for hierarchy-native analytics (ISSUE 6).

Reads the JSON emitted by bench_analytics (BENCH_analytics.json) and
enforces two things:

1. Exactness, always: every config must report hierarchy-native PageRank
   within 1e-9 of the adjacency-materializing baseline, and exact BFS /
   triangle agreement. Agreement failures fail the gate even when the
   timings are too noisy to judge — correctness does not get a SKIP.
2. Speed, when timings are trustworthy: at the high-compression config
   the 1-thread hierarchy-native PageRank must beat
   PageRankOnSummaryBatched by --min-speedup (default 2x). This part is
   skipped when the baseline ran shorter than --min-single-seconds.

It also prints, ungated, each config's triangle timings: the hierarchy-
native count at each pool size against TrianglesOnGraph on the input.

Usage:
    check_analytics.py [BENCH_analytics.json]
        [--config NAME] [--min-speedup X] [--min-single-seconds S]
        [--max-diff D]

Exit codes: 0 pass, 1 regression/disagreement, 2 bad input.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="BENCH_analytics.json")
    parser.add_argument("--config", default="high",
                        help="config name whose 1-thread speedup is gated")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="minimum hierarchy-native speedup over the "
                             "adjacency-materializing baseline")
    parser.add_argument("--min-single-seconds", type=float, default=0.2,
                        help="skip the speed gate when the baseline is "
                             "shorter than this (timing noise)")
    parser.add_argument("--max-diff", type=float, default=1e-9,
                        help="maximum tolerated PageRank |diff| vs baseline")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.report}: {err}", file=sys.stderr)
        return 2

    configs = report.get("configs", [])
    if not configs:
        print(f"error: no configs in {args.report}", file=sys.stderr)
        return 2

    # Exactness first: never skipped, every config.
    exact_ok = True
    for c in configs:
        name = c.get("name", "?")
        diff = c.get("pagerank_max_abs_diff", float("inf"))
        bfs = c.get("bfs_agree", False)
        tri = c.get("triangles_agree", False)
        if diff > args.max_diff or not bfs or not tri:
            print(f"FAIL: config '{name}' disagrees with the baseline "
                  f"(pagerank |diff|={diff:.3e}, bfs_agree={bfs}, "
                  f"triangles_agree={tri})")
            exact_ok = False
    if not exact_ok:
        return 1
    print(f"exactness: all {len(configs)} config(s) agree "
          f"(PageRank within {args.max_diff}, BFS/triangles exact)")

    for c in configs:
        for run in c.get("triangle_runs", []):
            print(f"triangles: config '{c.get('name', '?')}' "
                  f"{run.get('mode', '?')} x{run.get('threads', '?')}: "
                  f"{run.get('seconds', float('nan')):.4f}s "
                  f"({run.get('speedup_vs_graph', float('nan')):.2f}x vs graph)")

    gated = next((c for c in configs if c.get("name") == args.config), None)
    if gated is None:
        print(f"error: no config named '{args.config}' in {args.report}",
              file=sys.stderr)
        return 2
    runs = gated.get("runs", [])
    batched = next((r for r in runs if r.get("mode") == "batched"), None)
    native = next((r for r in runs if r.get("mode") == "hierarchy"
                   and r.get("threads") == 1), None)
    if batched is None or native is None:
        print(f"error: need a 'batched' run and a 1-thread 'hierarchy' run "
              f"in config '{args.config}'", file=sys.stderr)
        return 2

    if batched["seconds"] < args.min_single_seconds:
        print(f"SKIP: batched baseline took only {batched['seconds']:.3f}s "
              f"(< {args.min_single_seconds}s); too noisy to gate speed")
        return 0

    speedup = (batched["seconds"] / native["seconds"]
               if native["seconds"] > 0 else float("inf"))
    verdict = "PASS" if speedup >= args.min_speedup else "FAIL"
    print(f"{verdict}: hierarchy-native PageRank at config "
          f"'{args.config}' = {speedup:.2f}x over the adjacency-"
          f"materializing baseline (threshold {args.min_speedup}x)")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
