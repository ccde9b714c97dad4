#!/usr/bin/env python3
"""Turn a dstc_bench trace into the per-layer table.

    python3 benchmark/trace_summary.py TRACE_DIR_OR_FILE

A trace is the Chrome trace-event JSON dstc_bench writes with --trace
(open it in Perfetto or chrome://tracing). This script reads its spans,
counters and run metadata and prints

  - one row per span name: count, total and median self time (a span's
    duration minus the part its child spans cover);
  - the per-layer metrics declared in BENCHMARK.json, each with its
    unit and the basis it was computed from.

run.py imports per_layer_metrics() to report the traced run. Stdlib
only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics read straight off a span name: the median self time
# of the spans with that name, in ms.
SPAN_METRICS = {
    "core.plan_ms": "core.plan",
    "core.execute_ms": "core.execute",
    "core.digest_ms": "core.digest",
    "gemm.profile_ms": "gemm.profile",
    "gemm.density_probe_ms": "gemm.density_probe",
    "gemm.spgemm_ms": "gemm.spgemm",
    "gemm.spmm_ms": "gemm.spmm",
    "sparse.encode_two_level_ms": "sparse.encode_two_level",
    "sparse.encode_narrow_ms": "sparse.encode_narrow",
    "sparse.mtx_load_ms": "sparse.mtx_load",
    "im2col.fmap_encode_ms": "im2col.fmap_encode",
    "im2col.lower_ms": "im2col.lower",
    "im2col.retile_ms": "im2col.retile",
    "conv.run_ms": "conv.run",
    "serve.engine_build_ms": "serve.engine_build",
    "serve.pool_run_cold_ms": "serve.pool_run_cold",
    "serve.pool_run_warm_ms": "serve.pool_run_warm",
    "model.layer_requests_ms": "model.layer_requests",
    "model.input_gen_ms": "model.input_gen",
}

DENSE_BACKEND = "dense-cutlass"


def load_trace(path):
    if os.path.isdir(path):
        path = os.path.join(path, "trace.json")
    with open(path) as f:
        return json.load(f)


def spans_with_self_time(trace):
    """The trace's complete spans, each with a 'self' duration in us."""
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    children = {}
    for span in spans:
        children.setdefault(span["args"]["parent"], []).append(span)
    for span in spans:
        covered, end = 0.0, span["ts"]
        kids = sorted(children.get(span["args"]["id"], []),
                      key=lambda e: e["ts"])
        for kid in kids:  # union of the child intervals
            start = max(kid["ts"], end)
            stop = kid["ts"] + kid["dur"]
            if stop > start:
                covered += stop - start
                end = stop
        span["self"] = span["dur"] - covered
    return spans


def _median_ms(values_us):
    return statistics.median(values_us) / 1e3 if values_us else 0.0


def span_table(spans):
    """{name: (count, total self ms, median self ms)}."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["self"])
    return {name: (len(v), sum(v) / 1e3, _median_ms(v))
            for name, v in sorted(by_name.items())}


def per_layer_metrics(trace, declared):
    """{name: {"value", "unit", "basis"}} for every declared name.

    @p declared maps each per-layer metric name to its unit. A layer
    the workload never exercises reads 0. Span-derived values are
    medians of self time; the rest come from the counters dstc_bench
    wrote.
    """
    spans = spans_with_self_time(trace)
    selfs = {}
    for span in spans:
        selfs.setdefault(span["name"], []).append(span["self"])
    counters = trace["otherData"]["counters"]
    meta = trace["otherData"]["meta"]
    out = {}
    for name in declared:
        if name in SPAN_METRICS:
            values = selfs.get(SPAN_METRICS[name], [])
            out[name] = {"value": _median_ms(values), "unit": "ms",
                         "basis": "median self time of %d %s spans"
                         % (len(values), SPAN_METRICS[name])}
        elif name == "gemm.spgemm_scaling":
            one = _median_ms(selfs.get("gemm.spgemm", []))
            pool = _median_ms(selfs.get("gemm.spgemm_pool", []))
            out[name] = {"value": one / pool if pool else 0.0,
                         "unit": "x",
                         "basis": "median 1-worker %.3f ms / median "
                         "default-pool %.3f ms" % (one, pool)}
        elif name == "gemm.dense_exec_ms":
            values = [s["self"] for s in spans
                      if s["name"] == "core.execute"
                      and s["args"].get("backend") == DENSE_BACKEND]
            out[name] = {"value": _median_ms(values), "unit": "ms",
                         "basis": "median self time of %d core.execute "
                         "spans on %s" % (len(values), DENSE_BACKEND)}
        elif name == "im2col.register_ops":
            ops = [s["args"]["register_ops"] for s in spans
                   if s["name"] == "im2col.lower"]
            out[name] = {"value": statistics.mean(ops) if ops else 0.0,
                         "unit": "count",
                         "basis": "mean over %d lowered layers"
                         % len(ops)}
        elif name == "serve.run_ms_per_kreq":
            runs = [s for s in spans if s["name"] == "serve.run"]
            offered = sum(s["args"]["offered"] for s in runs)
            total_ms = sum(s["self"] for s in runs) / 1e3
            out[name] = {"value": 1e3 * total_ms / offered
                         if offered else 0.0, "unit": "ms",
                         "basis": "%.1f ms over %d offered requests"
                         % (total_ms, offered)}
        elif name == "bench.trace_overhead_frac":
            traced = meta["traced_p50_ms"]
            untraced = meta["untraced_p50_ms"]
            out[name] = {"value": traced / untraced - 1.0
                         if untraced else 0.0, "unit": "fraction",
                         "basis": "traced p50 %.3f ms / untraced p50 "
                         "%.3f ms, minus 1" % (traced, untraced)}
        elif name in counters:
            out[name] = dict(counters[name], basis="counter")
        else:
            out[name] = {"value": 0.0, "unit": declared[name],
                         "basis": "not exercised by this workload"}
    return out


def declared_per_layer():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trace = load_trace(argv[1])
    print("%-28s %7s %12s %12s" % ("span", "count", "self ms",
                                   "median ms"))
    for name, (count, total, med) in span_table(
            spans_with_self_time(trace)).items():
        print("%-28s %7d %12.3f %12.4f" % (name, count, total, med))
    print()
    print("%-28s %14s %-9s %s" % ("per-layer metric", "value", "unit",
                                  "basis"))
    for name, m in per_layer_metrics(trace, declared_per_layer()).items():
        print("%-28s %14.6g %-9s %s" % (name, m["value"], m["unit"],
                                        m["basis"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
