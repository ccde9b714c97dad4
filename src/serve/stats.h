/**
 * @file
 * ServingStats — tail-latency and SLO accounting of a serving run.
 *
 * Latencies are *simulated* microseconds (completion minus arrival
 * on the virtual clock), so every figure here is deterministic — a
 * pure function of the arrival sequence and the machine configs —
 * and two runs with the same seed produce field-for-field identical
 * stats. Percentiles use the nearest-rank definition on the sorted
 * latency list (no interpolation: the reported p99 is a latency some
 * request actually experienced).
 *
 * Vocabulary:
 *  - offered: every request the arrival stream produced
 *  - rejected/shed: refused at admission / dropped under overload
 *  - dropped: dequeued but never executed because its deadline was
 *    already infeasible (the Deadline policy's EDF-overload guard)
 *  - completed: executed to completion (met or missed its deadline)
 *  - lost: destroyed by an injected fault — interrupted by a crash
 *    with failover off, or transient-failed past the retry budget
 *  - deadline miss: completed after its deadline
 *  - SLO attainment: completed-in-deadline / offered
 *  - goodput: completed-in-deadline per simulated millisecond of the
 *    run's makespan — the "useful work under overload" figure
 */
#ifndef DSTC_SERVE_STATS_H
#define DSTC_SERVE_STATS_H

#include <cstdint>
#include <vector>

#include "serve/arrival.h"

namespace dstc {

/** Nearest-rank latency percentiles of one request population. */
struct LatencySummary
{
    int64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    bool operator==(const LatencySummary &) const = default;
};

/** Per-deadline-class slice of the run. */
struct ClassStats
{
    int64_t offered = 0;
    int64_t completed = 0;
    int64_t deadline_misses = 0; ///< completed late
    int64_t rejected = 0;
    int64_t shed = 0;
    int64_t dropped = 0; ///< dequeued already-infeasible, not run
    int64_t lost = 0;    ///< destroyed by faults, never completed
    int64_t recovered = 0; ///< completed after a retry or failover
    LatencySummary latency;
    /** Latency of the recovered requests only — what a retry or
     *  failover actually cost this class end to end. */
    LatencySummary recovery_latency;

    bool operator==(const ClassStats &) const = default;
};

/** Fault-injection and recovery counters of a serving run. */
struct FaultRecoveryStats
{
    int64_t crashes = 0;   ///< crash-stop events applied
    int64_t slowdowns = 0; ///< slowdown windows applied
    int64_t transient_failures = 0; ///< failed dispatch attempts

    int64_t retries = 0;   ///< re-dispatches after transient failure
    int64_t retries_exhausted = 0; ///< budget ran out (request lost)
    int64_t failovers = 0; ///< re-placements off a crashed device
    int64_t hedges = 0;    ///< hedged (duplicated) dispatches
    int64_t hedge_wins = 0; ///< the secondary arm finished first
    int64_t hedges_cancelled = 0; ///< loser arms cancelled

    /** Requests destroyed by faults: interrupted by a crash with no
     *  failover, or transient failures past the retry budget. */
    int64_t lost = 0;

    /** completed / (completed + lost): the fraction of executed-or-
     *  destroyed requests that actually finished. 1.0 on a healthy
     *  fleet (policy decisions — reject/shed/drop — do not count
     *  against availability; faults do). */
    double availability = 1.0;

    bool operator==(const FaultRecoveryStats &) const = default;
};

/** The full serving scorecard. */
struct ServingStats
{
    int64_t offered = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
    int64_t dropped = 0;
    int64_t completed = 0;
    int64_t deadline_misses = 0;

    int64_t steals = 0;        ///< work-stealing re-placements
    int64_t microbatches = 0;  ///< dispatches of >= 2 requests
    int64_t microbatched = 0;  ///< requests riding in those batches

    FaultRecoveryStats faults; ///< injection + recovery scoreboard

    double makespan_us = 0.0;  ///< last completion timestamp
    double throughput_rpms = 0.0; ///< completed per simulated ms
    double goodput_rpms = 0.0; ///< completed-in-deadline per sim ms
    double deadline_miss_rate = 0.0; ///< misses / completed
    double slo_attainment = 0.0;     ///< in-deadline / offered

    LatencySummary latency; ///< all completed requests
    std::vector<ClassStats> per_class; ///< kNumDeadlineClasses slices
    std::vector<int64_t> placed_per_device;
    std::vector<int64_t> completed_per_device;

    bool operator==(const ServingStats &) const = default;
};

/** Nearest-rank summary of @p latencies (unsorted, in us). */
LatencySummary summarizeLatencies(std::vector<double> latencies);

} // namespace dstc

#endif // DSTC_SERVE_STATS_H
