#!/usr/bin/env python3
"""Multi-core scaling gate: the production solve path must never lose
to the sequential algorithm, and must beat it once the hardware can.

Consumes one thread-sweep trajectory produced by scripts/run_benches.sh
(JSON-lines; every record carries the real worker count the scheduler
used in its "threads" field) and enforces, for the gated families
(glws, lis, lcs, gap, oat):

  1. Correctness: every record must say verified=1 — a fast wrong
     answer gates nothing.
  2. 1-thread parity: at threads=1 the production path (`seconds`,
     which is the `*_auto` routing) must match `sequential_s` within
     tolerance.  The adaptive cutoff makes this free by routing
     single-worker solves to the sequential algorithm.
  3. Parallel-beats-sequential: at every gated thread count t with
     --min-threads <= t <= the runner's core count, the production
     path must be no slower than `sequential_s` (within the same
     tolerance).  Families whose parallel machinery needs more workers
     than t route sequentially via their min-worker floor, so "no
     slower" is exactly what adaptive routing promises; a family that
     does go parallel at t must genuinely win.  glws, lis, lcs and gap
     have a floor of 8 (src/core/cutoff.hpp), so on a 4-core runner
     their gated points route sequentially and gate 3 checks that the
     routing costs nothing; oat has no floor, so its points run
     `path: parallel` and gate 3 checks a parallel win over
     Garsia-Wachs.  Each point's printed path shows which algorithm ran.

Each point also prints, ungated, its speedup over `one_thread_s` (the
parallel algorithm run inline) next to its speedup over `sequential_s`:
a win over a weak sequential baseline then shows up as one.

When the runner has fewer cores than --min-threads, gate 3 is SKIPPED
with a loud warning (oversubscribed "4 threads" on 1 core measures the
scheduler, not the algorithm) — gates 1 and 2 still run.  Minima over
repeated records are compared, and the tolerance mirrors
check_overhead.py: relative tolerance plus a small absolute slack so
millisecond-scale runs don't flake on scheduler jitter.

Usage:
  check_scaling.py trajectory.json [--min-threads 4] [--rel-tol 0.05]
                   [--abs-slack-s 0.010]
"""

import argparse
import json
import sys
from collections import defaultdict

# bench name -> family label; only these benches are gated.  The engine
# batch sweep is summarized for the log but carries no gate (its
# series mix direct/arena/service paths with no sequential_s contract).
FAMILIES = {
    "bench_fig7_glws": "glws",
    "bench_lis": "lis",
    "bench_fig6_lcs": "lcs",
    "bench_gap": "gap",
    "bench_oat": "oat",
}
# Fields that tell instances of one n apart (bench_lis: input shape).
EXTRA_KEYS = ("shape", "k", "L", "cells")


def load(path):
    """Returns (meta, points, engine) from a trajectory file.

    points[family][(n, extra)][threads] = {"seconds": min, "one": min,
    "seq": min, "paths": set, "unverified": count}
    """
    meta = {}
    points = defaultdict(lambda: defaultdict(dict))
    engine = defaultdict(lambda: float("inf"))  # (series, threads) -> best wall
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            bench = rec.get("bench")
            if bench == "meta":
                meta = rec
                continue
            threads = rec.get("threads")
            if bench == "bench_engine_batch":
                wall = rec.get("wall_s")
                if isinstance(wall, (int, float)) and threads is not None:
                    key = (rec.get("series"), threads)
                    engine[key] = min(engine[key], wall)
                continue
            family = FAMILIES.get(bench)
            if family is None or rec.get("series") != "ours":
                continue
            n, sec, seq = rec.get("n"), rec.get("seconds"), rec.get("sequential_s")
            if not all(isinstance(v, (int, float)) for v in (n, sec, seq)):
                continue
            extra = tuple((k, rec[k]) for k in EXTRA_KEYS if k in rec)
            cell = points[family][(n, extra)].setdefault(
                threads,
                {"seconds": float("inf"), "one": float("inf"),
                 "seq": float("inf"), "paths": set(), "unverified": 0})
            cell["seconds"] = min(cell["seconds"], sec)
            cell["seq"] = min(cell["seq"], seq)
            one = rec.get("one_thread_s")
            if isinstance(one, (int, float)):
                cell["one"] = min(cell["one"], one)
            cell["paths"].add(rec.get("path", "?"))
            if rec.get("verified") == 0:
                cell["unverified"] += 1
    return meta, points, engine


def fmt_extra(extra):
    return " ".join(f"{k}={v}" for k, v in extra) if extra else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trajectory", help="JSON-lines sweep from run_benches.sh")
    ap.add_argument("--min-threads", type=int, default=4,
                    help="thread floor for the parallel-beats-sequential gate")
    ap.add_argument("--rel-tol", type=float, default=0.05)
    ap.add_argument("--abs-slack-s", type=float, default=0.010)
    args = ap.parse_args()

    meta, points, engine = load(args.trajectory)
    cores = meta.get("cores")
    if not isinstance(cores, int) or cores < 1:
        print("check_scaling: WARNING: no 'cores' in meta record; assuming 1 "
              "(regenerate with scripts/run_benches.sh)", file=sys.stderr)
        cores = 1

    missing = [f for f in sorted(set(FAMILIES.values())) if f not in points]
    if missing:
        print(f"check_scaling: FAIL: no records for families: "
              f"{', '.join(missing)} in {args.trajectory}", file=sys.stderr)
        sys.exit(1)

    failed = False

    def limit(seq_s):
        return seq_s * (1.0 + args.rel_tol) + args.abs_slack_s

    print("check_scaling: each point: speedup over sequential_s (gated), "
          "then over one_thread_s (printed only)")
    for family in sorted(points):
        print(f"check_scaling: --- {family} ---")
        groups = points[family]
        largest_n = max(n for (n, _extra) in groups)
        for (n, extra), by_threads in sorted(groups.items()):
            curve = []
            for t in sorted(by_threads):
                cell = by_threads[t]
                if cell["unverified"]:
                    print(f"check_scaling: FAIL: {family} n={n} "
                          f"{fmt_extra(extra)} threads={t}: "
                          f"{cell['unverified']} unverified record(s)",
                          file=sys.stderr)
                    failed = True
                speedup = (cell["seq"] / cell["seconds"]
                           if cell["seconds"] > 0 else float("inf"))
                inline = (f"{cell['one'] / cell['seconds']:5.2f}x"
                          if cell["seconds"] > 0 and cell["one"] < float("inf")
                          else "    -")
                curve.append(f"t={t}:{speedup:5.2f}x seq {inline} 1t"
                             f"[{'/'.join(sorted(cell['paths']))}]")
            print(f"check_scaling: {family:5s} n={n:<8} {fmt_extra(extra):12s} "
                  f"seq={min(c['seq'] for c in by_threads.values()) * 1e3:9.3f}ms  "
                  + "  ".join(curve))

        # Gate 2: 1-thread parity, every instance size.
        for (n, extra), by_threads in sorted(groups.items()):
            cell = by_threads.get(1)
            if cell is None:
                print(f"check_scaling: FAIL: {family} n={n} {fmt_extra(extra)}: "
                      f"no threads=1 records in sweep", file=sys.stderr)
                failed = True
                continue
            if cell["seconds"] > limit(cell["seq"]):
                print(f"check_scaling: FAIL: {family} n={n} {fmt_extra(extra)}: "
                      f"1-thread production path {cell['seconds'] * 1e3:.3f}ms "
                      f"vs sequential {cell['seq'] * 1e3:.3f}ms exceeds "
                      f"parity tolerance", file=sys.stderr)
                failed = True

        # Gate 3: parallel beats (or, via routing, matches) sequential at
        # every gated thread count, on the largest instances.
        gate_ts = sorted(t for (n, _e), bt in groups.items() if n == largest_n
                         for t in bt
                         if t is not None and args.min_threads <= t <= cores)
        if cores < args.min_threads:
            print(f"check_scaling: WARNING: runner has {cores} core(s) < "
                  f"--min-threads {args.min_threads}; parallel-beats-"
                  f"sequential gate SKIPPED for {family} (oversubscribed "
                  f"timings prove nothing)")
            continue
        if not gate_ts:
            print(f"check_scaling: FAIL: {family}: no records at "
                  f"{args.min_threads} <= threads <= {cores} for n={largest_n}",
                  file=sys.stderr)
            failed = True
            continue
        for t in sorted(set(gate_ts)):
            worst = None
            for (n, extra), by_threads in groups.items():
                if n != largest_n or t not in by_threads:
                    continue
                cell = by_threads[t]
                over = cell["seconds"] - limit(cell["seq"])
                if worst is None or over > worst[0]:
                    worst = (over, extra, cell)
            if worst is None:
                continue
            over, extra, cell = worst
            if over > 0:
                print(f"check_scaling: FAIL: {family} n={largest_n} "
                      f"{fmt_extra(extra)} threads={t}: production path "
                      f"{cell['seconds'] * 1e3:.3f}ms loses to sequential "
                      f"{cell['seq'] * 1e3:.3f}ms "
                      f"(paths: {'/'.join(sorted(cell['paths']))})",
                      file=sys.stderr)
                failed = True

    if engine:
        print("check_scaling: --- engine batch (informational) ---")
        by_series = defaultdict(dict)
        for (series, t), wall in engine.items():
            by_series[series][t] = wall
        for series in sorted(by_series):
            walls = by_series[series]
            base = walls.get(1)
            curve = "  ".join(
                f"t={t}:{walls[t] * 1e3:8.3f}ms"
                + (f" ({base / walls[t]:4.2f}x)" if base else "")
                for t in sorted(walls))
            print(f"check_scaling: {series:16s} {curve}")

    if failed:
        print("check_scaling: FAIL: the multi-core claim does not hold on "
              "this trajectory", file=sys.stderr)
        sys.exit(1)
    print("check_scaling: OK")


if __name__ == "__main__":
    main()
