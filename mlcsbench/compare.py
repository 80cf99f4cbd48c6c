#!/usr/bin/env python3
"""Compares two result sets of mlcsbench/run.sh, report only.

    python3 mlcsbench/compare.py <setA> <setB>

setA is the baseline (the parent commit), setB the change. Each is a
directory of BENCH_mlcs_<workload>_seed<n>_<untraced|traced>.json files.

For each workload and end-to-end metric of BENCHMARK.json it prints both
sets' medians and quartiles over their runs, and a verdict against the
metric's bound:
  unresolved  a set's spread (quartile distance over median) exceeds the
              bound, unless every run of B beats every run of A, or the
              reverse;
  worse       B's median is worse than A's by more than the bound;
  better      B's median is better than A's by more than the bound;
  unchanged   otherwise.
It then lists the five per-layer metrics (traced runs) whose medians moved
most. Always exits 0 when both sets load.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, traced):
    """workload -> metric -> list of per-run values."""
    runs = {}
    kind = "traced" if traced else "untraced"
    for path in sorted(glob.glob(os.path.join(directory, "*_%s.json" % kind))):
        with open(path) as f:
            result = json.load(f)
        per = runs.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, bound, higher_better):
    sign = -1 if higher_better else 1
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    spread = max((q3_a - q1_a) / med_a if med_a else 0,
                 (q3_b - q1_b) / med_b if med_b else 0)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0
    if spread > bound:
        # Every run of one side beats every run of the other: still decided.
        if all(sign * x < sign * y for x in b for y in a):
            return "better"
        if all(sign * x > sign * y for x in b for y in a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    set_a, set_b = sys.argv[1], sys.argv[2]
    a, b = load(set_a, False), load(set_b, False)

    print("%-11s %-12s %26s %26s %8s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B vs A", "verdict (bound)"))
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            va = a.get(w, {}).get(m["name"])
            vb = b.get(w, {}).get(m["name"])
            if not va or not vb:
                print("%-11s %-12s missing in %s" % (
                    w, m["name"], "A" if not va else "B"))
                continue
            v = verdict(va, vb, m["bound"], m["better"] == "higher")
            med_a, med_b = summary(va)[0], summary(vb)[0]
            change = (med_b - med_a) / med_a if med_a else 0
            print("%-11s %-12s %26s %26s %+7.1f%%  %s (%.0f%%, n=%d/%d)" % (
                w, m["name"], "%.4g [%.4g, %.4g]" % summary(va),
                "%.4g [%.4g, %.4g]" % summary(vb), 100 * change, v,
                100 * m["bound"], len(va), len(vb)))

    ta, tb = load(set_a, True), load(set_b, True)
    moves = []
    for w in set(ta) & set(tb):
        for m in spec["per_layer"]:
            va = ta[w].get(m["name"])
            vb = tb[w].get(m["name"])
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            base = max(abs(med_a), abs(med_b))
            if base == 0:
                continue
            moves.append((abs(med_b - med_a) / base, w, m, med_a, med_b))
    moves.sort(key=lambda x: -x[0])
    print("\nper-layer metrics that moved most (traced runs, medians):")
    for _, w, m, med_a, med_b in moves[:5]:
        print("  %-11s %-32s %12.4g -> %-12.4g %s (%s is better)" % (
            w, m["name"], med_a, med_b, m["unit"], m["better"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
