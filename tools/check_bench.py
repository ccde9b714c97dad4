#!/usr/bin/env python3
"""CI bench-regression gate.

Re-runs each micro bench in --quick mode and checks it, together with
its checked-in reference (BENCH_*.json), against the gates that
BENCHES declares for it. Every bench gets the functional gate: every
point, measured and reference, must report bitwise_equal (each fast
path reproduces its scalar / serial reference exactly) and positive
*_ms timings. The declared gates are:

 - floor_band: a measured field must stay >= an absolute floor and
   >= a tolerance times the smallest reference value with the same
   operating key. Points are matched on their operating keys
   (sparsity, method, stride, ...), never on shape or machine, so the
   gate survives CI hardware variance while still catching real
   regressions. Word-vs-scalar speedups (spgemm, spconv, encode),
   hybrid-vs-best-single ratios (hybrid, floor on the reference too)
   and narrow-vs-wide SpMM ratios (spmm, band only).
 - policy_pair: per group of points (heterogeneous device mix, load),
   a winner policy must match or beat a loser policy on a simulated
   metric (ratio >= 1) and stay >= a tolerance times the reference
   ratio. Cost vs round-robin makespan (cluster), deadline vs
   round-robin p99 and goodput on healthy points (serve), failover vs
   no recovery goodput under the crash script (serve).
 - one-off checks: pooled-vs-word parallel slack, the int8-vs-fp16
   precision gates, transient-only retry losing nothing, availability
   in [0, 1], the hybrid mixed-density win, and the SpMM corpus median,
   Auto selection slack, cusparse-like never-lose and worker-stability
   checks.

Simulated (*_us) quantities are deterministic, so the tolerances on
them only absorb intentional cost-model changes; the wall-clock gates
(speedups, parallel slack) carry wide bands.

Exit code 0 = green, 1 = regression, 2 = usage/setup error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial

# Thresholds. Each names the one value the gate is held to.
TOLERANCE = 0.40          # measured >= this x reference (speedups,
                          # placement and serving ratios)
MIN_SPEEDUP = 1.0         # word path never slower than scalar
PARALLEL_SLACK = 2.0      # pooled path at most this x the word path
HYBRID_FLOOR = 0.999      # hybrid never loses to the best single backend
HYBRID_WIN = 1.15         # material win at some mixed-density point
HYBRID_TOLERANCE = 0.95   # measured hybrid ratio >= this x reference
SPMM_MEDIAN_WIN = 2.0     # corpus-median narrow-vs-wide (reference)
SPMM_SELECT_SLACK = 1.05  # Auto format at most this x the better format
SPMM_TOLERANCE = 0.95     # measured narrow-vs-wide >= this x reference
PRECISION_FLOOR = 1.3     # int8 over fp16 at memory-bound points
TIMEOUT_S = 600.0         # per-bench quick-run timeout


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return False


def point_key(point, keys):
    return tuple(point.get(k) for k in keys)


def point_label(point):
    fields = ("kind", "shape", "matrix", "m", "method", "sparsity",
              "wsp", "asp", "stride", "clustered", "tile_k",
              "devices", "policy", "load", "mix", "b_sparsity",
              "b_kind", "faults", "recovery")
    parts = [f"{k}={point[k]}" for k in fields if k in point]
    return "{" + ", ".join(parts) + "}"


def sides(ref, meas):
    return (("reference", ref.get("points", [])),
            ("measured", meas.get("points", [])))


def check_points(name, points):
    ok = True
    for p in points:
        if not p.get("bitwise_equal", False):
            ok = fail(f"{name}: {point_label(p)} is not bitwise "
                      f"equal to the scalar reference")
        for field, value in p.items():
            if field.endswith("_ms") and not value > 0.0:
                ok = fail(f"{name}: {point_label(p)} has "
                          f"non-positive timing {field}={value}")
    return ok


# -- generic gates ----------------------------------------------------

def floor_band(name, ref, meas, *, field, keys, tolerance, floor=None,
               floor_reference=False):
    """`field` >= `floor` on every measured point (and every reference
    point with `floor_reference`), and >= `tolerance` x the smallest
    key-matched reference value."""
    ok = True
    ref_points = ref.get("points", [])
    meas_points = meas.get("points", [])
    floored = sides(ref, meas) if floor_reference else \
        (("measured", meas_points),)
    for side, pts in floored if floor is not None else ():
        for p in pts:
            value = p.get(field, 0.0)
            if value < floor:
                ok = fail(f"{name} ({side}): {point_label(p)} {field} "
                          f"{value:.4f}x fell below the floor "
                          f"{floor:.4f}x")
    for p in meas_points:
        value = p.get(field, 0.0)
        matches = [r.get(field, 0.0) for r in ref_points
                   if point_key(r, keys) == point_key(p, keys)]
        if not matches:
            print(f"check_bench: note: {name} {point_label(p)} has no "
                  f"reference point with the same operating key; "
                  f"no {field} band")
            continue
        threshold = tolerance * min(matches)
        if value < threshold:
            ok = fail(f"{name}: {point_label(p)} {field} {value:.4f}x "
                      f"regressed below {threshold:.4f}x (= "
                      f"{tolerance:.2f} x reference "
                      f"{min(matches):.4f}x)")
    return ok


def pair_ratio(points, axis, winner, loser, field, better):
    """winner-vs-loser ratio of `field` over `points`, oriented so > 1
    means the winner wins; None if either side is missing or zero."""
    values = {p.get(axis): p.get(field, 0.0) for p in points}
    win, lose = values.get(winner), values.get(loser)
    if not win or not lose:
        return None
    return lose / win if better == "lower" else win / lose


def policy_pair(name, ref, meas, *, select, group_by, axis, winner,
                loser, metrics, tolerance):
    """For each group of the `select`ed measured points (the product of
    the distinct values of the `group_by` fields; device sets are
    restricted to heterogeneous mixes) and each (field, better, label)
    metric: the `winner` value of `axis` must match or beat the `loser`
    (ratio >= 1) and stay >= `tolerance` x the reference ratio."""
    ref_points = [p for p in ref.get("points", []) if select(p)]
    meas_points = [p for p in meas.get("points", []) if select(p)]
    groups = [()]
    for key in group_by:
        values = {p.get(key) for p in meas_points}
        if key == "devices":
            values = {d for d in values if "+" in (d or "")}
            if not values:
                return fail(f"{name}: no heterogeneous device mix "
                            f"measured")
        groups = [g + (v,) for g in groups for v in sorted(values)]

    ok = True
    for group in groups:
        where = "@".join(map(str, group)) or "all points"
        members = [p for p in meas_points
                   if point_key(p, group_by) == group]
        ref_members = [p for p in ref_points
                       if point_key(p, group_by) == group]
        for field, better, label in metrics:
            pair = (axis, winner, loser, field, better)
            ratio = pair_ratio(members, *pair)
            if ratio is None:
                ok = fail(f"{name}: {where} lacks {winner}/{loser} "
                          f"points for the {label} gate")
                continue
            point_ok = True
            if ratio < 1.0:
                point_ok = fail(f"{name}: {where} {winner} "
                                f"({ratio:.2f}x) lost to {loser} on "
                                f"{label}")
            ref_ratio = pair_ratio(ref_members, *pair)
            if ref_ratio is not None and ratio < tolerance * ref_ratio:
                point_ok = fail(
                    f"{name}: {where} {label} advantage {ratio:.2f}x "
                    f"regressed below {tolerance * ref_ratio:.2f}x (= "
                    f"{tolerance:.2f} x reference {ref_ratio:.2f}x)")
            if point_ok:
                print(f"check_bench: {name}: {where} {label} advantage "
                      f"{ratio:.2f}x ({winner} vs {loser})")
            ok = point_ok and ok
    return ok


# -- one-off gates ----------------------------------------------------

def parallel_slack(name, ref, meas):
    """The pooled path must not be catastrophically slower than the
    single-thread word path. Single-rep timings are one raw sample
    each (a late pool wake-up can triple a sub-millisecond pooled
    point), and on one hardware thread the pool cannot scale at all,
    so the check applies to best-of-N runs on multi-core hosts only."""
    config = meas.get("config", {})
    if config.get("reps", 1) < 2 or \
            config.get("hardware_concurrency", 0) == 1:
        return True
    ok = True
    for p in meas.get("points", []):
        par = p.get("parallel_ms", 0.0)
        word = p.get("word_ms", 0.0)
        if par > 0 and word > 0 and par > PARALLEL_SLACK * word:
            ok = fail(f"{name}: {point_label(p)} pooled path "
                      f"({par:.3f} ms) is worse than "
                      f"{PARALLEL_SLACK:.1f}x the single-thread word "
                      f"path ({word:.3f} ms)")
    return ok


def precision_bitwise(name, ref, meas):
    """Every precision point, both sides, must hold its in-domain
    bitwise guarantee (serial == pooled; integer datatypes also ==
    their golden model or scalar encode)."""
    ok = True
    for side, doc in (("reference", ref), ("measured", meas)):
        pts = doc.get("precision_points", [])
        if not pts:
            ok = fail(f"{name} ({side}): no precision points — the "
                      f"datatype axis went missing")
        for p in pts:
            if not p.get("bitwise_equal", False):
                ok = fail(f"{name} ({side}): precision point "
                          f"dtype={p.get('dtype')} "
                          f"sparsity={p.get('sparsity')} broke its "
                          f"in-domain bitwise guarantee")
    return ok


def precision_sides(ref, meas):
    """(side, {sparsity: {dtype: point}}) for both precision sweeps."""
    for side, doc in (("reference", ref), ("measured", meas)):
        table = {}
        for p in doc.get("precision_points", []):
            table.setdefault(p.get("sparsity"), {})[p.get("dtype")] = p
        yield side, table


def precision_gemm(name, ref, meas):
    """int8 must beat fp16 by PRECISION_FLOOR on simulated kernel time
    at every memory-bound sparsity: the narrow value lanes must shrink
    the modeled DRAM traffic."""
    ok = True
    for side, table in precision_sides(ref, meas):
        if not table:
            continue  # precision_bitwise reports the missing axis
        gated = False
        for sparsity, by_dtype in sorted(table.items()):
            f16, i8 = by_dtype.get("fp16"), by_dtype.get("int8")
            if not f16 or not i8 or not f16.get("memory_bound", False):
                continue
            gated = True
            ratio = f16.get("modeled_us", 0.0) / \
                max(i8.get("modeled_us", 0.0), 1e-9)
            if ratio < PRECISION_FLOOR:
                ok = fail(f"{name} ({side}): int8 advantage over fp16 "
                          f"at sparsity={sparsity} is {ratio:.2f}x, "
                          f"below the {PRECISION_FLOOR:.2f}x floor on "
                          f"simulated kernel time")
            else:
                print(f"check_bench: {name} ({side}): int8 "
                      f"{ratio:.2f}x faster than fp16 at "
                      f"sparsity={sparsity} (simulated, memory-bound)")
        if not gated:
            ok = fail(f"{name} ({side}): no memory-bound fp16/int8 "
                      f"pair to gate the precision advantage on")
    return ok


def precision_encode(name, ref, meas):
    """The int8 and int4 encoded footprints must be strictly smaller
    than fp16's at every sparsity."""
    ok = True
    for side, table in precision_sides(ref, meas):
        for sparsity, by_dtype in sorted(table.items()):
            f16 = by_dtype.get("fp16")
            for narrow in ("int8", "int4"):
                p = by_dtype.get(narrow)
                if not f16 or not p:
                    continue
                if not p.get("encoded_mb", 0.0) < \
                        f16.get("encoded_mb", 0.0):
                    ok = fail(f"{name} ({side}): {narrow} encoded "
                              f"footprint ({p.get('encoded_mb')} MB) "
                              f"is not smaller than fp16's "
                              f"({f16.get('encoded_mb')} MB) at "
                              f"sparsity={sparsity}")
    return ok


def fault_points(doc):
    return [p for p in doc.get("points", []) if p.get("faults", "")]


def transient_retry(name, ref, meas):
    """Under transient-only faults with retry, zero requests may be
    lost, and the retries must actually happen."""
    points = [p for p in fault_points(meas)
              if "transient" in p["faults"] and "crash" not in p["faults"]
              and "retry" in p.get("recovery", "")]
    if not points:
        return fail(f"{name}: no transient-only retry point measured")
    ok = True
    for p in points:
        if p.get("lost", -1) != 0:
            ok = fail(f"{name}: {point_label(p)} lost {p.get('lost')} "
                      f"requests under transient-only faults with "
                      f"retry (must be 0)")
        elif p.get("retries", 0) <= 0:
            ok = fail(f"{name}: {point_label(p)} recorded no retries "
                      f"— the transient fault axis went missing")
        else:
            print(f"check_bench: {name}: {point_label(p)} retried "
                  f"{p.get('retries')} transient failures, lost 0")
    return ok


def availability(name, ref, meas):
    ok = True
    for p in fault_points(meas):
        avail = p.get("availability", -1.0)
        if not 0.0 <= avail <= 1.0:
            ok = fail(f"{name}: {point_label(p)} availability {avail} "
                      f"outside [0, 1]")
    return ok


def hybrid_win(name, ref, meas):
    """The reference sweep and the quick run must both show a material
    hybrid win at some mixed-density point."""
    ok = True
    for side, pts in sides(ref, meas):
        best = max((p.get("ratio_vs_best", 0.0) for p in pts
                    if 0.0 < p.get("mix", 0.0) < 1.0), default=0.0)
        if best < HYBRID_WIN:
            ok = fail(f"{name} ({side}): best mixed-density win "
                      f"{best:.2f}x fell below the material-win "
                      f"threshold {HYBRID_WIN:.2f}x — the partition no "
                      f"longer pays off anywhere")
        else:
            print(f"check_bench: {name} ({side}): best mixed-density "
                  f"win {best:.2f}x over the best single backend")
    return ok


def spmm_median(name, ref, meas):
    """The reference sweep's corpus-median narrow-vs-wide ratio (the
    headline claim at 99%+ sparsity)."""
    ratios = [p.get("narrow_vs_wide", 0.0) for p in ref.get("points", [])]
    if not ratios:
        return fail(f"{name}: reference sweep has no points")
    median = statistics.median(ratios)
    if median < SPMM_MEDIAN_WIN:
        return fail(f"{name}: corpus-median narrow-vs-wide ratio "
                    f"{median:.2f}x fell below the "
                    f"{SPMM_MEDIAN_WIN:.2f}x headline floor")
    print(f"check_bench: {name}: corpus-median narrow-vs-wide "
          f"{median:.2f}x over {len(ratios)} matrices")
    return True


def spmm_points(name, ref, meas):
    """Every SpMM point, both sides: bitwise stable across worker
    counts, the selected dual kernel never loses to the cusparse-like
    baseline, and Auto selection stays within SPMM_SELECT_SLACK of the
    better format."""
    ok = True
    for side, pts in sides(ref, meas):
        for p in pts:
            label = point_label(p)
            if not p.get("workers_bitwise_equal", False):
                ok = fail(f"{name} ({side}): {label} narrow kernel is "
                          f"not bitwise stable across worker counts")
            if p.get("cusparse_vs_selected", 0.0) < 1.0:
                ok = fail(f"{name} ({side}): {label} selected dual "
                          f"kernel lost to the cusparse-like baseline "
                          f"({p.get('cusparse_vs_selected', 0.0):.2f}x)")
            best = min(p.get("narrow_us", 0.0), p.get("wide_us", 0.0))
            sel = p.get("selected_us", 0.0)
            if not best > 0.0 or not sel > 0.0:
                ok = fail(f"{name} ({side}): {label} has non-positive "
                          f"simulated times")
            elif sel > SPMM_SELECT_SLACK * best:
                ok = fail(f"{name} ({side}): {label} Auto selection "
                          f"picked a format {sel / best:.3f}x the best "
                          f"(slack {SPMM_SELECT_SLACK:.2f}x)")
    return ok


# -- the per-bench table ----------------------------------------------

@dataclass
class Bench:
    reference: str
    gates: list
    corpus: bool = False


def speedup(keys):
    return partial(floor_band, field="speedup_word_vs_scalar", keys=keys,
                   floor=MIN_SPEEDUP, tolerance=TOLERANCE)


def healthy(p):
    return not p.get("faults", "")


def crash_only(p):
    faults = p.get("faults", "")
    return "crash" in faults and "transient" not in faults


BENCHES = {
    "micro_spgemm": Bench("BENCH_spgemm.json", [
        speedup(("sparsity", "tile_k")), parallel_slack,
        precision_bitwise, precision_gemm]),
    "micro_spconv": Bench("BENCH_spconv.json", [
        speedup(("method", "wsp", "asp", "stride", "clustered")),
        parallel_slack]),
    "micro_encode": Bench("BENCH_encode.json", [
        speedup(("kind", "sparsity", "stride")), parallel_slack,
        precision_bitwise, precision_encode]),
    "micro_cluster": Bench("BENCH_cluster.json", [
        partial(policy_pair, select=lambda p: True, group_by=("devices",),
                axis="policy", winner="cost", loser="rr",
                metrics=(("makespan_us", "lower", "placement quality"),),
                tolerance=TOLERANCE)]),
    "micro_serve": Bench("BENCH_serve.json", [
        partial(policy_pair, select=healthy,
                group_by=("devices", "load"), axis="policy",
                winner="deadline", loser="rr",
                metrics=(("p99_us", "lower", "p99 tail latency"),
                         ("goodput_rpms", "higher", "goodput")),
                tolerance=TOLERANCE),
        partial(policy_pair, select=crash_only, group_by=(),
                axis="recovery", winner="failover", loser="none",
                metrics=(("goodput_rpms", "higher",
                          "crash-script recovery goodput"),),
                tolerance=TOLERANCE),
        transient_retry, availability]),
    "micro_hybrid": Bench("BENCH_hybrid.json", [
        partial(floor_band, field="ratio_vs_best",
                keys=("mix", "b_sparsity", "b_kind"), floor=HYBRID_FLOOR,
                floor_reference=True, tolerance=HYBRID_TOLERANCE),
        hybrid_win]),
    "micro_spmm": Bench("BENCH_spmm.json", [
        spmm_points, spmm_median,
        partial(floor_band, field="narrow_vs_wide", keys=("matrix", "n"),
                tolerance=SPMM_TOLERANCE)], corpus=True),
}


def run_quick(binary, extra=()):
    with tempfile.NamedTemporaryFile(suffix=".json",
                                     delete=False) as tmp:
        out_path = tmp.name
    try:
        proc = subprocess.run([binary, "--quick", "--out", out_path,
                               *extra],
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            return None
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def check_bench(name, bench, args):
    ref_path = os.path.join(args.repo_root, bench.reference)
    binary = os.path.join(args.build_dir, "bench", name)
    if not os.path.exists(ref_path):
        print(f"check_bench: missing reference {ref_path}")
        return False
    if not os.path.exists(binary):
        print(f"check_bench: missing binary {binary} (build first)")
        return False

    with open(ref_path) as f:
        reference = json.load(f)
    ok = check_points(f"{name} (reference)",
                      reference.get("points", []))

    extra = ()
    if bench.corpus:
        extra = ("--corpus", os.path.join(args.repo_root, "corpus"))
    print(f"check_bench: running {binary} --quick ...")
    measured = run_quick(binary, extra)
    if measured is None:
        return fail(f"{name}: quick run failed")
    meas_points = measured.get("points", [])
    if not meas_points:
        return fail(f"{name}: quick run produced no points")
    ok = check_points(f"{name} (measured)", meas_points) and ok

    for gate in bench.gates:
        ok = gate(name, reference, measured) and ok
    if ok:
        print(f"check_bench: {name}: {len(meas_points)} quick points "
              f"green")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (bench binaries)")
    parser.add_argument("--repo-root", default=".",
                        help="directory of the BENCH_*.json references")
    args = parser.parse_args()

    ok = True
    for name, bench in BENCHES.items():
        ok = check_bench(name, bench, args) and ok
    if not ok:
        sys.exit(1)
    print("check_bench: all benches green")


if __name__ == "__main__":
    main()
