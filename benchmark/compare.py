#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python3 benchmark/compare.py --base A1 A2 A3 A4 A5 --change B1 B2 B3 B4 B5

Each file holds the standard output of `benchmark/run.py` (untraced), for
one workload or several.  The two sides must have the same number of
files; base file i is paired with change file i, and the two runs of a
pair must have the same seed.  Every run must have measured the same
number of seconds.  Anything else is refused (exit 2), because it would
compare runs of different work.

A pair is left out when either run is marked invalid (its load generator
fell behind); at least 5 pairs of every workload must remain.  If any run
of a workload, on either side, has correct = false or failed > 0, every
row of that workload reads `failed` and the failed counts of both sides
are printed: a run that errors, sheds or mismatches cannot be compared
with a clean one.  Otherwise, for every (workload, end-to-end metric) it
prints the medians and quartiles of both sides and a verdict:

  ok          the change's median is no worse than the base's by more
              than the metric's bound;
  worse       it is worse by more than the bound;
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, so the bound cannot be
              judged - unless every change run beats every base run.

The `gain` column says whether the change would support a claim of
improvement: over at least 10 pairs (ties counting for neither) it wins
at least nine tenths, and the medians differ by more than the base's
quartile distance.  Exit code 1 when any row is worse or failed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 5
MIN_GAIN_PAIRS = 10


def refuse(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load(paths):
    """workload -> {file position: record}."""
    runs = {}
    for pos, path in enumerate(paths):
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line).get("record")
            if rec is None or "trace" in rec:
                continue
            by_pos = runs.setdefault(rec["workload"], {})
            if pos in by_pos:
                refuse(f"{path}: two {rec['workload']} runs in one file")
            by_pos[pos] = rec
    return runs


def pairs_of(workload, base, change, args):
    """The (base, change) record pairs of `workload`, refusing mismatched
    seeds or lengths and dropping pairs with an invalid run."""
    b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
    if set(b_runs) != set(c_runs):
        refuse(f"{workload}: present in base files {sorted(b_runs)} but in "
               f"change files {sorted(c_runs)}")
    seconds = {r["seconds"] for r in [*b_runs.values(), *c_runs.values()]}
    if len(seconds) > 1:
        refuse(f"{workload}: runs measured different lengths {sorted(seconds)} s")
    pairs = []
    for pos in sorted(b_runs):
        b, c = b_runs[pos], c_runs[pos]
        if b["seed"] != c["seed"]:
            refuse(f"{workload}: {args.base[pos]} has seed {b['seed']} but "
                   f"{args.change[pos]} has seed {c['seed']}")
        if not (b.get("valid", True) and c.get("valid", True)):
            print(f"compare.py: {workload}: pair {args.base[pos]} / "
                  f"{args.change[pos]} has an invalid run, left out",
                  file=sys.stderr)
            continue
        pairs.append((b, c))
    return pairs


def failures(records):
    """(runs that failed, operations that failed) over `records`."""
    bad = [r for r in records if not r["correct"] or r["failed"] > 0]
    return len(bad), sum(r["failed"] for r in records)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    if len(args.base) != len(args.change):
        refuse(f"{len(args.base)} base files but {len(args.change)} change "
               "files; runs are compared in pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)

    bad_rows = False
    header = (f"{'workload':<15} {'metric':<16} {'base median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8} {'bound':>6} "
              f"{'verdict':<10} gain")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base and workload not in change:
            continue
        b_fail = failures(base.get(workload, {}).values())
        c_fail = failures(change.get(workload, {}).values())
        if b_fail[0] or c_fail[0]:
            print(f"compare.py: {workload}: failed runs base {b_fail[0]} "
                  f"({b_fail[1]} operations), change {c_fail[0]} "
                  f"({c_fail[1]} operations)", file=sys.stderr)
            for m in spec["end_to_end"]:
                print(f"{workload:<15} {m['name']:<16} {'-':>30} {'-':>30} "
                      f"{'-':>8} {m['bound']:>6.2f} {'failed':<10} -")
            bad_rows = True
            continue
        pairs = pairs_of(workload, base, change, args)
        if len(pairs) < MIN_RUNS:
            refuse(f"{workload}: need {MIN_RUNS} valid pairs, have "
                   f"{len(pairs)}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            b = [p[0]["metrics"][name]["value"] for p in pairs]
            c = [p[1]["metrics"][name]["value"] for p in pairs]
            b_med, b_q1, b_q3, b_spread = summary(b)
            c_med, c_q1, c_q3, c_spread = summary(c)
            worse_by = sign * (c_med - b_med) / abs(b_med)
            all_better = max(sign * x for x in c) < min(sign * x for x in b)
            if max(b_spread, c_spread) > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            bad_rows = bad_rows or verdict == "worse"
            wins = sum(1 for x, y in zip(b, c) if sign * y < sign * x)
            gain = (len(pairs) >= MIN_GAIN_PAIRS
                    and wins >= 0.9 * len(pairs)
                    and abs(c_med - b_med) > b_q3 - b_q1 and worse_by < 0)
            b_col = f"{b_med:.5g} [{b_q1:.4g}, {b_q3:.4g}]"
            c_col = f"{c_med:.5g} [{c_q1:.4g}, {c_q3:.4g}]"
            delta = (c_med - b_med) / abs(b_med) * 100
            print(f"{workload:<15} {name:<16} {b_col:>30} {c_col:>30} "
                  f"{delta:>+7.1f}% {bound:>6.2f} {verdict:<10} "
                  f"{'yes' if gain else '-'}")
    sys.exit(1 if bad_rows else 0)


if __name__ == "__main__":
    main()
