#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark (stdlib only).

    python3 benchmark/compare.py A.json B.json

A and B are result sets written by `run.py --runs K` (A is the
baseline, B the candidate). For every workload x end-to-end metric it
prints both sides' median and quartiles, the change of B's median
against A's, the pair win rate (runs paired by seed; B strictly better
wins, ties count for neither) and a verdict under the bound
BENCHMARK.json fixes for the metric:

  ok          B's median is no worse than A's by more than the bound
  worse       B's median is worse by more than the bound
  unresolved  a side's quartile spread (Q3 - Q1 over the median) is
              wider than the bound, and not every B run beats every
              A run

Exits 1 if any pairing is worse, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(values):
    """(median, q1, q3) with Python's default quartile method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summarize(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(x, y, direction):
    """True when x is strictly better than y."""
    return x < y if direction == "lower" else x > y


def verdict(a, b, direction, bound):
    """(verdict, change) for baseline runs @p a and candidate runs @p b.

    change is B's median relative to A's, signed so that positive means
    worse.
    """
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    if direction == "higher":
        change = -change
    all_better = all(better(x, y, direction) for x in b for y in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "ok", change


def runs_by_seed(result_set, workload, metric):
    """{seed: value} over the untraced runs of a result set."""
    out = {}
    for run in result_set["runs"]:
        if run.get("trace", 0):
            continue
        record = run["workloads"].get(workload)
        if record and metric in record["metrics"]:
            out[run["seed"]] = record["metrics"][metric]["value"]
    return out


def compare(set_a, set_b, spec):
    """One row per workload x end-to-end metric present on both sides."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = runs_by_seed(set_a, workload, metric["name"])
            b = runs_by_seed(set_b, workload, metric["name"])
            if not a or not b:
                continue
            kind, change = verdict(list(a.values()), list(b.values()),
                                   metric["better"], metric["bound"])
            seeds = sorted(set(a) & set(b))
            wins = sum(better(b[s], a[s], metric["better"])
                       for s in seeds)
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": summarize(list(a.values())),
                "b": summarize(list(b.values())),
                "change": change,
                "bound": metric["bound"],
                "wins": wins,
                "pairs": len(seeds),
                "win_rate": wins / len(seeds) if seeds else 0.0,
                "verdict": kind,
            })
    return rows


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(argv[1]) as f:
        set_a = json.load(f)
    with open(argv[2]) as f:
        set_b = json.load(f)
    rows = compare(set_a, set_b, spec)
    print("%-12s %-21s %-32s %-32s %8s %6s %5s %s"
          % ("workload", "metric", "A median [q1, q3]",
             "B median [q1, q3]", "change", "bound", "wins",
             "verdict"))
    for r in rows:
        print("%-12s %-21s %-32s %-32s %+7.2f%% %5.0f%% %5s %s"
              % (r["workload"], r["metric"],
                 "%.5g [%.5g, %.5g]" % r["a"],
                 "%.5g [%.5g, %.5g]" % r["b"], 100 * r["change"],
                 100 * r["bound"], "%d/%d" % (r["wins"], r["pairs"]),
                 r["verdict"]))
    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("verdicts: " + ", ".join("%s %d" % kv
                                   for kv in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
