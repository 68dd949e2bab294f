#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by perfbench/run.py (its
.bench_data/results/). Records are grouped by workload and mode (trace 0 or
1), and each metric's median over a group's runs is compared, base against
new. Every metric a record holds is shown; an end-to-end metric of
BENCHMARK.json that got worse by more than its bound is flagged. Refuses to
compare results whose host stamps differ.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    groups = {}
    stamps = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        stamps.add(json.dumps(record["stamp"], sort_keys=True))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups, stamps


def median(records, name):
    values = [r["metrics"][name]["value"] for r in records
              if r["metrics"].get(name, {}).get("value") is not None]
    return statistics.median(values) if values else None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    base, base_stamps = load(sys.argv[1])
    new, new_stamps = load(sys.argv[2])
    stamps = base_stamps | new_stamps
    if len(stamps) != 1:
        print("refusing to compare: the results carry %d different host "
              "stamps" % len(stamps), file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 1

    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs")
        names = sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"]))
        for name in names:
            b, n = median(base[key], name), median(new[key], name)
            if b is None or n is None:
                print(f"  {name:30s} {'unbounded':>14s} in one set")
                continue
            change = (n - b) / b if b else 0.0
            worse = change if better.get(name, "lower") == "lower" else -change
            flag = ""
            if name in bounds and worse > bounds[name]:
                flag = "  REGRESSION (bound %.2f)" % bounds[name]
                regressions += 1
            unit = base[key][0]["metrics"][name]["unit"]
            print(f"  {name:30s} {b:14.6g} -> {n:14.6g} {unit:6s} "
                  f"{change:+8.1%}{flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
