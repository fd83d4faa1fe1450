#!/usr/bin/env python3
"""Fold repeated stems-micro-v1 snapshots into one: each component's
opsPerSec becomes the median over the runs (nsPerOp follows from it).
Every other field is taken from the first run.

    scripts/bench_median.py OUT.json RUN1.json RUN2.json [RUN3.json ...]

`stems_report bench base.json head.json` then compares two such
medians component by component.
"""

import json
import statistics
import sys


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    runs = []
    for path in argv[2:]:
        with open(path) as f:
            runs.append(json.load(f))
    out = runs[0]
    for row in out["components"]:
        rates = [c["opsPerSec"] for run in runs
                 for c in run["components"] if c["name"] == row["name"]]
        if len(rates) != len(runs):
            sys.exit("component %s is missing from a run" % row["name"])
        row["opsPerSec"] = statistics.median(rates)
        row["nsPerOp"] = 1e9 / row["opsPerSec"] if row["opsPerSec"] else 0
    out["comment"] = "median of %d runs" % len(runs)
    with open(argv[1], "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv)
