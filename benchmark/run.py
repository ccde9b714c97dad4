#!/usr/bin/env python3
"""Build and run the repo benchmark (stdlib only).

One run of one workload, as BENCHMARK.json's command:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric as `workload metric value unit` and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics (from the
Chrome trace written under --trace-dir) with --trace 1. It exits 1
when a check failed.

Without --workload it runs every workload in turn, --runs times with
seeds N, N+1, ..., and writes the result set compare.py reads (--out).
--quick runs one pass per workload with the ladder cut to its 550 rung,
traced and untraced, and fails on any missing, unit-less or undeclared
metric name.

The benchmark builds the library from this checkout's sources into
build/benchmark on first use (cmake, Release).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build", "benchmark")
BINARY = os.path.join(BUILD_DIR, "dstc_bench")

sys.path.insert(0, BENCH_DIR)
import trace_summary  # noqa: E402

# dstc_bench's own limit, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build dstc_bench; build logs go to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("library sources not found at %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "dstc_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def host_info():
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], capture_output=True,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": "Release"}


def run_once(spec, workload, seed, seconds, trace, trace_dir, quick):
    """One dstc_bench run, checked. Returns the run record."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--corpus", os.path.join(ROOT, "corpus")]
    if trace:
        cmd += ["--trace", os.path.join(trace_dir,
                                        "%s-seed%d" % (workload, seed))]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("dstc_bench %s exited %d"
                         % (workload, proc.returncode))
    raw = json.loads(lines[-1])

    errors = list(raw["errors"])
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    declared = list(units)
    if trace:
        metrics = trace_summary.per_layer_metrics(
            trace_summary.load_trace(raw["trace"]), units)
    else:
        metrics = raw["metrics"]
    produced = set(metrics)
    for name in sorted(set(declared) - produced):
        errors.append("metric %s missing" % name)
    for name in sorted(produced - set(declared)):
        errors.append("undeclared metric %s" % name)
    for name in sorted(produced & set(declared)):
        m = metrics[name]
        if not m.get("unit"):
            errors.append("metric %s has no unit" % name)
        elif m["unit"] != units[name]:
            errors.append("metric %s in %s, declared %s"
                          % (name, m["unit"], units[name]))
        if not math.isfinite(m["value"]):
            errors.append("metric %s is not finite" % name)
    return {
        "workload": workload,
        "seed": seed,
        "correct": raw["failed"] == 0 and not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": errors,
        "passes": raw["passes"],
        "latency_samples": raw["latency_samples"],
        "latency_tail_pct": raw["latency_tail_pct"],
        "latency_tail_ms": raw["latency_tail_ms"],
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]}
                    for n in declared if n in metrics},
    }


def report(record):
    for name, m in sorted(record["metrics"].items()):
        print("%s %s %.6g %s" % (record["workload"], name, m["value"],
                                 m["unit"]))
    if "latency_p50_ms" in record["metrics"]:
        # The tail is printed, not declared: on a shared host it tracks
        # the host's load more than the program (benchmark/README.md).
        print("%s latency tail p%d %.6g ms over %d samples"
              % (record["workload"], record["latency_tail_pct"],
                 record["latency_tail_ms"], record["latency_samples"]))
    for error in record["errors"]:
        print("%s FAILED: %s" % (record["workload"], error),
              file=sys.stderr)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-dir",
                   default=os.path.join(BUILD_DIR, "trace"))
    p.add_argument("--quick", action="store_true")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args()

    try:
        build()
        if args.workload:
            record = run_once(spec, args.workload, args.seed,
                              args.seconds, args.trace, args.trace_dir,
                              args.quick)
            report(record)
            print(json.dumps({k: record[k] for k in
                              ("correct", "attempted", "failed",
                               "metrics")}))
            return 0 if record["correct"] else 1

        start = time.time()
        traces = (0, 1) if args.quick else (args.trace,)
        result_set = {"seconds": args.seconds, "quick": args.quick,
                      "host": host_info(), "runs": []}
        ok = True
        for seed in range(args.seed, args.seed + args.runs):
            for trace in traces:
                run = {"seed": seed, "trace": trace, "workloads": {}}
                for workload in names:
                    record = run_once(spec, workload, seed, args.seconds,
                                      trace, args.trace_dir, args.quick)
                    report(record)
                    ok = ok and record["correct"]
                    run["workloads"][workload] = record
                result_set["runs"].append(run)
        out = args.out or os.path.join(
            BUILD_DIR, "results", "seed%d-x%d.json" % (args.seed,
                                                      args.runs))
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as f:
            json.dump(result_set, f, indent=1)
        print("wrote %s (%.0f s)" % (out, time.time() - start))
        return 0 if ok else 1
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
