#!/usr/bin/env python3
"""Per-layer self time and counts from traced benchmark runs.

    python3 benchmark/layers.py .bench_build/traces/*.json

Each file is a Chrome trace written by `benchmark/run.py --trace 1`.  For
every span name it prints the count, the total and mean duration, and
the self time: a span's duration minus the part of it its child spans
cover (children are found through the `parent` id each span carries, so
a request's spans count as its children even though they run on other
threads).  Rows are sorted by total self time; `share` is the span's
part of all self time in the file.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path


def self_times(events):
    spans = {}
    children = defaultdict(list)
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        start, end = e["ts"], e["ts"] + e["dur"]
        spans[args["id"]] = (e["name"], start, end)
        if args.get("parent"):
            children[args["parent"]].append((start, end))
    out = []
    for sid, (name, start, end) in spans.items():
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(sid, [])):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((name, end - start, end - start - covered))
    return out


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        events = json.loads(Path(path).read_text())["traceEvents"]
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for name, dur, own in self_times(events):
            row = rows[name]
            row[0] += 1
            row[1] += dur
            row[2] += own
        total_self = sum(r[2] for r in rows.values()) or 1.0
        print(f"\n{Path(path).name}")
        print(f"{'span':<20} {'count':>8} {'total ms':>12} {'mean us':>10} "
              f"{'self ms':>12} {'self mean us':>13} {'share':>7}")
        for name, (count, dur, own) in sorted(rows.items(),
                                              key=lambda kv: -kv[1][2]):
            print(f"{name:<20} {count:>8} {dur / 1e3:>12.3f} "
                  f"{dur / count:>10.2f} {own / 1e3:>12.3f} "
                  f"{own / count:>13.2f} {own / total_self:>7.1%}")


if __name__ == "__main__":
    main()
