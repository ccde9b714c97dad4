#!/usr/bin/env python3
"""Unit test of the bench-regression gate's declared gates.

Feeds synthetic reference / measured documents straight to each gate
that check_bench.BENCHES declares, with no bench binaries. Every gate
has a case that passes at its threshold and a case that fails just
past it, so a loosened threshold or a dropped check fails here.

Run: python3 tools/test_check_bench.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench as cb  # noqa: E402


def doc(points=(), precision=None, **config):
    d = {"points": list(points), "config": config}
    if precision is not None:
        d["precision_points"] = list(precision)
    return d


def gate(bench, fn, **keywords):
    """The gate `fn` that BENCHES declares for `bench`; `keywords`
    pick one of several declarations of the same function."""
    for g in cb.BENCHES[bench].gates:
        if getattr(g, "func", g) is fn and all(
                g.keywords.get(k) == v for k, v in keywords.items()):
            return g
    raise LookupError(f"{bench} declares no {fn.__name__} {keywords}")


# -- point builders ---------------------------------------------------

def spgemm_pt(speedup, sparsity=0.9, **fields):
    return {"sparsity": sparsity, "tile_k": 32, "bitwise_equal": True,
            "speedup_word_vs_scalar": speedup, **fields}


def precision_pt(dtype, sparsity=0.9, **fields):
    return {"dtype": dtype, "sparsity": sparsity, "bitwise_equal": True,
            **fields}


def gemm_precision(f16_us, i8_us, memory_bound=True):
    return [precision_pt("fp16", modeled_us=f16_us,
                         memory_bound=memory_bound),
            precision_pt("int8", modeled_us=i8_us,
                         memory_bound=memory_bound)]


def encode_precision(f16_mb, i8_mb, i4_mb):
    return [precision_pt("fp16", encoded_mb=f16_mb),
            precision_pt("int8", encoded_mb=i8_mb),
            precision_pt("int4", encoded_mb=i4_mb)]


def cluster_pts(devices, rr_us, cost_us):
    return [{"devices": devices, "policy": "rr", "makespan_us": rr_us},
            {"devices": devices, "policy": "cost",
             "makespan_us": cost_us}]


def serve_pts(devices, load, rr, deadline, faults=""):
    """rr / deadline are (p99_us, goodput_rpms) pairs."""
    return [{"devices": devices, "load": load, "policy": policy,
             "faults": faults, "p99_us": p99, "goodput_rpms": goodput}
            for policy, (p99, goodput) in (("rr", rr),
                                           ("deadline", deadline))]


def crash_pts(none_goodput, failover_goodput):
    return [{"faults": "crash@500:d1", "recovery": recovery,
             "goodput_rpms": goodput}
            for recovery, goodput in (("none", none_goodput),
                                      ("failover", failover_goodput))]


def transient_pt(lost=0, retries=5, availability=1.0):
    return {"faults": "transient:p0.05", "recovery": "retry",
            "lost": lost, "retries": retries,
            "availability": availability}


def hybrid_pt(ratio, mix=0.5):
    return {"mix": mix, "b_sparsity": 0.5, "b_kind": "uniform",
            "ratio_vs_best": ratio}


def spmm_pt(matrix="cora", narrow_vs_wide=2.5, narrow_us=1.0,
            wide_us=2.5, selected_us=1.0, cusparse_vs_selected=10.0,
            workers_bitwise_equal=True):
    return {"matrix": matrix, "n": 32, "narrow_vs_wide": narrow_vs_wide,
            "narrow_us": narrow_us, "wide_us": wide_us,
            "selected_us": selected_us,
            "cusparse_vs_selected": cusparse_vs_selected,
            "workers_bitwise_equal": workers_bitwise_equal}


MULTI_CORE = {"reps": 3, "hardware_concurrency": 4}

# (label, bench, gate function, declaration keywords, reference,
#  measured, expected verdict)
CASES = [
    # Word-vs-scalar speedup: floor MIN_SPEEDUP, band TOLERANCE x ref.
    ("speedup at the floor", "micro_spgemm", cb.floor_band, {},
     doc([spgemm_pt(2.0)]), doc([spgemm_pt(1.0)]), True),
    ("speedup just under the floor", "micro_spgemm", cb.floor_band, {},
     doc([spgemm_pt(2.0)]), doc([spgemm_pt(0.999)]), False),
    ("speedup inside the band", "micro_spconv", cb.floor_band, {},
     doc([{"method": "dual", "speedup_word_vs_scalar": 10.0}]),
     doc([{"method": "dual", "speedup_word_vs_scalar": 4.01}]), True),
    ("conv speedup just under the floor", "micro_spconv", cb.floor_band,
     {}, doc([{"method": "dual", "speedup_word_vs_scalar": 2.0}]),
     doc([{"method": "dual", "speedup_word_vs_scalar": 0.999}]), False),
    ("encode speedup inside the band", "micro_encode", cb.floor_band,
     {}, doc([{"kind": "request", "speedup_word_vs_scalar": 10.0}]),
     doc([{"kind": "request", "speedup_word_vs_scalar": 4.01}]), True),
    ("speedup just under the band", "micro_encode", cb.floor_band, {},
     doc([{"kind": "request", "speedup_word_vs_scalar": 10.0}]),
     doc([{"kind": "request", "speedup_word_vs_scalar": 3.99}]), False),
    ("band uses the worst matching reference", "micro_spgemm",
     cb.floor_band, {},
     doc([spgemm_pt(10.0), spgemm_pt(5.0),
          spgemm_pt(1.0, sparsity=0.8)]),
     doc([spgemm_pt(2.01)]), True),
    ("unmatched point gets the floor only", "micro_spgemm",
     cb.floor_band, {}, doc([spgemm_pt(50.0, sparsity=0.5)]),
     doc([spgemm_pt(1.0)]), True),

    # Parallel slack: pooled <= PARALLEL_SLACK x word (multi-core,
    # best-of-N only).
    ("pooled at the slack", "micro_spgemm", cb.parallel_slack, {},
     doc([spgemm_pt(3.0)]),
     doc([spgemm_pt(3.0, word_ms=1.0, parallel_ms=2.0)], **MULTI_CORE),
     True),
    ("pooled just past the slack", "micro_spconv", cb.parallel_slack,
     {}, doc([spgemm_pt(3.0)]),
     doc([spgemm_pt(3.0, word_ms=1.0, parallel_ms=2.01)], **MULTI_CORE),
     False),
    ("slack skipped on one hardware thread", "micro_encode",
     cb.parallel_slack, {}, doc(),
     doc([spgemm_pt(3.0, word_ms=1.0, parallel_ms=9.0)], reps=3,
         hardware_concurrency=1), True),
    ("slack skipped on single-rep runs", "micro_encode",
     cb.parallel_slack, {}, doc(),
     doc([spgemm_pt(3.0, word_ms=1.0, parallel_ms=9.0)], reps=1,
         hardware_concurrency=4), True),

    # Precision points: in-domain bitwise on both sides.
    ("precision bitwise", "micro_spgemm", cb.precision_bitwise, {},
     doc(precision=gemm_precision(2.0, 1.0)),
     doc(precision=gemm_precision(2.0, 1.0)), True),
    ("precision bitwise broken", "micro_encode", cb.precision_bitwise,
     {}, doc(precision=encode_precision(2.0, 1.0, 0.5)),
     doc(precision=[precision_pt("int8", bitwise_equal=False)]), False),
    ("precision axis missing", "micro_spgemm", cb.precision_bitwise, {},
     doc(precision=gemm_precision(2.0, 1.0)), doc(), False),

    # int8 over fp16 >= PRECISION_FLOOR at memory-bound points.
    ("int8 at 1.31x fp16", "micro_spgemm", cb.precision_gemm, {},
     doc(precision=gemm_precision(1.31, 1.0)),
     doc(precision=gemm_precision(1.31, 1.0)), True),
    ("int8 at 1.29x fp16", "micro_spgemm", cb.precision_gemm, {},
     doc(precision=gemm_precision(1.31, 1.0)),
     doc(precision=gemm_precision(1.29, 1.0)), False),
    ("no memory-bound pair", "micro_spgemm", cb.precision_gemm, {},
     doc(precision=gemm_precision(2.0, 1.0)),
     doc(precision=gemm_precision(2.0, 1.0, memory_bound=False)), False),

    # Narrow encoded footprints strictly below fp16's.
    ("narrow footprints smaller", "micro_encode", cb.precision_encode,
     {}, doc(precision=encode_precision(2.0, 1.0, 0.5)),
     doc(precision=encode_precision(2.0, 1.999, 0.5)), True),
    ("int4 footprint equal to fp16", "micro_encode",
     cb.precision_encode, {},
     doc(precision=encode_precision(2.0, 1.0, 0.5)),
     doc(precision=encode_precision(2.0, 1.0, 2.0)), False),

    # Placement quality: cost vs rr makespan >= 1 and >= TOLERANCE x
    # the reference ratio, on heterogeneous mixes.
    ("cost placement ties rr", "micro_cluster", cb.policy_pair, {},
     doc(cluster_pts("v100+future", 2.0, 1.0)),
     doc(cluster_pts("v100+future", 1.0, 1.0)), True),
    ("cost placement loses to rr", "micro_cluster", cb.policy_pair, {},
     doc(cluster_pts("v100+future", 2.0, 1.0)),
     doc(cluster_pts("v100+future", 0.99, 1.0)), False),
    ("placement quality under the band", "micro_cluster",
     cb.policy_pair, {}, doc(cluster_pts("v100+future", 3.0, 1.0)),
     doc(cluster_pts("v100+future", 1.19, 1.0)), False),
    ("homogeneous mixes are not gated", "micro_cluster",
     cb.policy_pair, {}, doc(cluster_pts("v100+future", 2.0, 1.0)),
     doc(cluster_pts("v100+future", 1.5, 1.0) +
         cluster_pts("v100x2", 0.5, 1.0)), True),
    ("no heterogeneous mix measured", "micro_cluster", cb.policy_pair,
     {}, doc(), doc(cluster_pts("v100x2", 2.0, 1.0)), False),
    ("placement pair missing rr", "micro_cluster", cb.policy_pair, {},
     doc(), doc(cluster_pts("v100+future", 2.0, 1.0)[1:]), False),

    # Serving: deadline vs rr on p99 and goodput per (mix, load), on
    # healthy points.
    ("deadline ties rr", "micro_serve", cb.policy_pair,
     {"axis": "policy"},
     doc(serve_pts("v100+future", "2.5x", (10.0, 1.0), (5.0, 2.0))),
     doc(serve_pts("v100+future", "2.5x", (10.0, 1.0), (10.0, 1.0)) +
         serve_pts("v100+future", "2.5x", (1.0, 1.0), (9.0, 0.1),
                   faults="crash@500:d1")), True),
    ("deadline goodput just under rr", "micro_serve", cb.policy_pair,
     {"axis": "policy"}, doc(),
     doc(serve_pts("v100+future", "2.5x", (10.0, 1.0), (10.0, 0.99))),
     False),
    ("deadline p99 advantage under the band", "micro_serve",
     cb.policy_pair, {"axis": "policy"},
     doc(serve_pts("v100+future", "2.5x", (30.0, 1.0), (10.0, 1.0))),
     doc(serve_pts("v100+future", "2.5x", (11.9, 1.0), (10.0, 1.0))),
     False),
    ("a load seen only on one mix is still required on the others",
     "micro_serve", cb.policy_pair, {"axis": "policy"}, doc(),
     doc(serve_pts("v100+future", "0.8x", (10.0, 1.0), (5.0, 2.0)) +
         serve_pts("v100x2", "2.5x", (10.0, 1.0), (5.0, 2.0))), False),

    # Crash-script recovery: failover goodput >= no recovery.
    ("failover ties no recovery", "micro_serve", cb.policy_pair,
     {"axis": "recovery"}, doc(crash_pts(1.0, 1.02)),
     doc(crash_pts(1.0, 1.0)), True),
    ("failover just under no recovery", "micro_serve", cb.policy_pair,
     {"axis": "recovery"}, doc(crash_pts(1.0, 1.02)),
     doc(crash_pts(1.0, 0.99)), False),
    ("crash pair missing", "micro_serve", cb.policy_pair,
     {"axis": "recovery"}, doc(), doc([transient_pt()]), False),

    # Transient-only faults with retry: lost == 0, retries > 0.
    ("transient retry loses nothing", "micro_serve", cb.transient_retry,
     {}, doc(), doc([transient_pt()]), True),
    ("transient retry loses one", "micro_serve", cb.transient_retry, {},
     doc(), doc([transient_pt(lost=1)]), False),
    ("transient axis without retries", "micro_serve",
     cb.transient_retry, {}, doc(), doc([transient_pt(retries=0)]),
     False),
    ("no transient retry point", "micro_serve", cb.transient_retry, {},
     doc(), doc(crash_pts(1.0, 1.0)), False),

    # Availability in [0, 1] on fault points.
    ("availability at the bounds", "micro_serve", cb.availability, {},
     doc(), doc([transient_pt(availability=1.0),
                 transient_pt(availability=0.0)]), True),
    ("availability above 1", "micro_serve", cb.availability, {}, doc(),
     doc([transient_pt(availability=1.0001)]), False),
    ("availability below 0", "micro_serve", cb.availability, {}, doc(),
     doc([transient_pt(availability=-0.0001)]), False),

    # Hybrid vs best single: floor HYBRID_FLOOR on both sides, band
    # HYBRID_TOLERANCE x the reference.
    ("hybrid at the floor", "micro_hybrid", cb.floor_band, {},
     doc([hybrid_pt(0.999)]), doc([hybrid_pt(0.999)]), True),
    ("hybrid just under the floor", "micro_hybrid", cb.floor_band, {},
     doc([hybrid_pt(0.999)]), doc([hybrid_pt(0.9989)]), False),
    ("reference hybrid under the floor", "micro_hybrid", cb.floor_band,
     {}, doc([hybrid_pt(0.9989), hybrid_pt(1.0, mix=0.0)]),
     doc([hybrid_pt(1.0, mix=0.0)]), False),
    ("hybrid inside the band", "micro_hybrid", cb.floor_band, {},
     doc([hybrid_pt(1.2)]), doc([hybrid_pt(1.141)]), True),
    ("hybrid just under the band", "micro_hybrid", cb.floor_band, {},
     doc([hybrid_pt(1.2)]), doc([hybrid_pt(1.139)]), False),

    # A material mixed-density win >= HYBRID_WIN on both sides.
    ("mixed-density win at the threshold", "micro_hybrid",
     cb.hybrid_win, {}, doc([hybrid_pt(1.15)]),
     doc([hybrid_pt(1.15), hybrid_pt(2.0, mix=1.0)]), True),
    ("mixed-density win just under", "micro_hybrid", cb.hybrid_win, {},
     doc([hybrid_pt(1.15)]),
     doc([hybrid_pt(1.149), hybrid_pt(2.0, mix=0.0)]), False),
    ("reference lost its mixed-density win", "micro_hybrid",
     cb.hybrid_win, {}, doc([hybrid_pt(1.149)]), doc([hybrid_pt(1.2)]),
     False),

    # SpMM points: worker-stable, never lose to cusparse-like, Auto
    # within SPMM_SELECT_SLACK of the better format.
    ("spmm selection at the slack", "micro_spmm", cb.spmm_points, {},
     doc([spmm_pt()]), doc([spmm_pt(selected_us=1.05)]), True),
    ("spmm selection at 1.051x best", "micro_spmm", cb.spmm_points, {},
     doc([spmm_pt()]), doc([spmm_pt(selected_us=1.051)]), False),
    ("spmm reference selection past the slack", "micro_spmm",
     cb.spmm_points, {}, doc([spmm_pt(selected_us=1.051)]),
     doc([spmm_pt()]), False),
    ("selected kernel ties cusparse-like", "micro_spmm",
     cb.spmm_points, {}, doc([spmm_pt()]),
     doc([spmm_pt(cusparse_vs_selected=1.0)]), True),
    ("selected kernel loses to cusparse-like", "micro_spmm",
     cb.spmm_points, {}, doc([spmm_pt()]),
     doc([spmm_pt(cusparse_vs_selected=0.999)]), False),
    ("narrow kernel drifts across workers", "micro_spmm",
     cb.spmm_points, {}, doc([spmm_pt()]),
     doc([spmm_pt(workers_bitwise_equal=False)]), False),
    ("non-positive simulated time", "micro_spmm", cb.spmm_points, {},
     doc([spmm_pt()]), doc([spmm_pt(selected_us=0.0)]), False),

    # Reference corpus-median narrow-vs-wide >= SPMM_MEDIAN_WIN.
    ("corpus median at the floor", "micro_spmm", cb.spmm_median, {},
     doc([spmm_pt(narrow_vs_wide=r) for r in (1.0, 1.9, 2.1, 3.0)]),
     doc(), True),
    ("corpus median just under", "micro_spmm", cb.spmm_median, {},
     doc([spmm_pt(narrow_vs_wide=r) for r in (1.0, 1.99, 5.0)]),
     doc(), False),
    ("empty reference sweep", "micro_spmm", cb.spmm_median, {}, doc(),
     doc([spmm_pt()]), False),

    # Narrow-vs-wide band SPMM_TOLERANCE x the reference, no floor.
    ("narrow-vs-wide inside the band", "micro_spmm", cb.floor_band, {},
     doc([spmm_pt(narrow_vs_wide=2.0)]),
     doc([spmm_pt(narrow_vs_wide=1.91)]), True),
    ("narrow-vs-wide just under the band", "micro_spmm", cb.floor_band,
     {}, doc([spmm_pt(narrow_vs_wide=2.0)]),
     doc([spmm_pt(narrow_vs_wide=1.89)]), False),
    ("narrow-vs-wide has no floor", "micro_spmm", cb.floor_band, {},
     doc([spmm_pt(narrow_vs_wide=0.5)]),
     doc([spmm_pt(narrow_vs_wide=0.5)]), True),
]


def verdict(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


class DeclaredGates(unittest.TestCase):
    def test_cases(self):
        for label, bench, fn, keywords, ref, meas, expected in CASES:
            with self.subTest(label, bench=bench):
                g = gate(bench, fn, **keywords)
                self.assertIs(verdict(g, bench, ref, meas), expected)

    def test_every_declared_gate_has_both_verdicts(self):
        seen = {}
        for _, bench, fn, keywords, _, _, expected in CASES:
            seen.setdefault(id(gate(bench, fn, **keywords)),
                            set()).add(expected)
        for bench, spec in cb.BENCHES.items():
            for g in spec.gates:
                name = getattr(g, "func", g).__name__
                with self.subTest(bench=bench, gate=name):
                    self.assertEqual(seen.get(id(g)), {True, False})

    def test_functional_gate(self):
        good = {"bitwise_equal": True, "word_ms": 0.1}
        self.assertTrue(verdict(cb.check_points, "x", [good]))
        self.assertFalse(verdict(cb.check_points, "x",
                                 [dict(good, bitwise_equal=False)]))
        self.assertFalse(verdict(cb.check_points, "x",
                                 [dict(good, word_ms=0.0)]))


if __name__ == "__main__":
    unittest.main()
