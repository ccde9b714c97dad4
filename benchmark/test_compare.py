#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic result sets.

    python3 benchmark/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
}


def result_set(values_by_metric, seeds=None, trace=0):
    """A result set with one run per value, seeds 1.. unless given."""
    count = len(next(iter(values_by_metric.values())))
    seeds = seeds or list(range(1, count + 1))
    runs = []
    for i, seed in enumerate(seeds):
        metrics = {name: {"value": values[i], "unit": "u"}
                   for name, values in values_by_metric.items()}
        runs.append({"seed": seed, "trace": trace,
                     "workloads": {"w": {"metrics": metrics}}})
    return {"runs": runs}


def row(rows, metric):
    return next(r for r in rows if r["metric"] == metric)


class CompareTest(unittest.TestCase):

    def test_quartiles_follow_statistics_quantiles(self):
        med, q1, q3 = compare.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(compare.summarize([7.0]), (7.0, 7.0, 7.0))

    def test_identical_sets_are_ok_with_no_wins(self):
        values = {"latency_ms": [10.0, 10.1, 9.9, 10.05, 9.95],
                  "rate": [100.0, 101.0, 99.0, 100.5, 99.5]}
        rows = compare.compare(result_set(values), result_set(values),
                               SPEC)
        self.assertEqual(len(rows), 2)
        for r in rows:
            self.assertEqual(r["verdict"], "ok")
            self.assertEqual(r["wins"], 0)
            self.assertEqual(r["pairs"], 5)
            self.assertAlmostEqual(r["change"], 0.0)

    def test_lower_is_better_regression_beyond_bound(self):
        a = result_set({"latency_ms": [10.0, 10.1, 9.9, 10.0, 10.0]})
        b = result_set({"latency_ms": [12.0, 12.1, 11.9, 12.0, 12.0]})
        r = row(compare.compare(a, b, SPEC), "latency_ms")
        self.assertEqual(r["verdict"], "worse")
        self.assertAlmostEqual(r["change"], 0.2)

    def test_higher_is_better_direction(self):
        a = result_set({"rate": [100.0, 101.0, 99.0, 100.0, 100.0]})
        slower = result_set({"rate": [80.0, 81.0, 79.0, 80.0, 80.0]})
        faster = result_set({"rate": [120.0, 121.0, 119.0, 120.0,
                                      120.0]})
        worse = row(compare.compare(a, slower, SPEC), "rate")
        self.assertEqual(worse["verdict"], "worse")
        self.assertAlmostEqual(worse["change"], 0.2)
        improved = row(compare.compare(a, faster, SPEC), "rate")
        self.assertEqual(improved["verdict"], "ok")
        self.assertEqual(improved["wins"], 5)
        self.assertAlmostEqual(improved["win_rate"], 1.0)

    def test_within_bound_is_ok(self):
        a = result_set({"latency_ms": [10.0, 10.0, 10.0, 10.0, 10.0]})
        b = result_set({"latency_ms": [10.5, 10.5, 10.5, 10.5, 10.5]})
        self.assertEqual(row(compare.compare(a, b, SPEC),
                             "latency_ms")["verdict"], "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        a = result_set({"latency_ms": [10.0, 10.0, 10.0, 10.0, 10.0]})
        b = result_set({"latency_ms": [8.0, 14.0, 10.0, 7.0, 13.0]})
        self.assertEqual(row(compare.compare(a, b, SPEC),
                             "latency_ms")["verdict"], "unresolved")

    def test_wide_spread_but_every_run_better_is_resolved(self):
        a = result_set({"latency_ms": [20.0, 30.0, 25.0, 21.0, 29.0]})
        b = result_set({"latency_ms": [10.0, 15.0, 12.0, 11.0, 14.0]})
        r = row(compare.compare(a, b, SPEC), "latency_ms")
        self.assertEqual(r["verdict"], "ok")
        self.assertEqual(r["wins"], 5)

    def test_pairs_match_by_seed_and_ties_count_for_neither(self):
        a = result_set({"latency_ms": [10.0, 10.0, 10.0]},
                       seeds=[1, 2, 3])
        b = result_set({"latency_ms": [9.0, 10.0, 11.0, 1.0]},
                       seeds=[1, 2, 3, 9])
        r = row(compare.compare(a, b, SPEC), "latency_ms")
        self.assertEqual(r["pairs"], 3)
        self.assertEqual(r["wins"], 1)

    def test_traced_runs_are_ignored(self):
        a = result_set({"latency_ms": [10.0, 10.0]})
        b = result_set({"latency_ms": [10.0, 10.0]})
        b["runs"] += result_set({"latency_ms": [50.0, 50.0]},
                                trace=1)["runs"]
        self.assertEqual(row(compare.compare(a, b, SPEC),
                             "latency_ms")["verdict"], "ok")

    def test_metric_missing_on_one_side_is_skipped(self):
        a = result_set({"latency_ms": [10.0, 10.0]})
        b = result_set({"rate": [10.0, 10.0]})
        self.assertEqual(compare.compare(a, b, SPEC), [])


if __name__ == "__main__":
    unittest.main()
