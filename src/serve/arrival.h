/**
 * @file
 * Deterministic open-loop traffic synthesis for the serving layer.
 *
 * An ArrivalGenerator turns a seed into the request stream a
 * production front end would see: arrival timestamps in simulated
 * microseconds, a per-request deadline class (interactive / standard
 * / batch), and an index into the caller's workload pool (which
 * request shape arrived). Two processes are supported:
 *
 *  - Poisson: memoryless arrivals at a fixed mean rate — the
 *    classical open-loop load model.
 *  - Bursty: a two-state Markov-modulated Poisson process (calm /
 *    burst) whose state-conditional rates are normalized so the
 *    long-run mean equals the requested rate. Bursts are what break
 *    naive least-loaded placement: a queue that looked fine a
 *    millisecond ago is suddenly deep.
 *
 * Everything is a pure function of ArrivalOptions (including the
 * seed): the same options always produce the identical sequence, so
 * serving runs — and their bitwise-replay checks — are reproducible.
 */
#ifndef DSTC_SERVE_ARRIVAL_H
#define DSTC_SERVE_ARRIVAL_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/vocabulary.h"

namespace dstc {

/** Open-loop arrival process shape. */
enum class TrafficPattern
{
    Poisson, ///< memoryless, fixed mean rate
    Bursty,  ///< two-state Markov-modulated Poisson
};

/** The traffic patterns and their CLI tokens. */
inline constexpr Term<TrafficPattern> kTrafficPatterns[] = {
    {TrafficPattern::Poisson, "poisson"},
    {TrafficPattern::Bursty, "bursty"},
};
static_assert(listsEveryValue(kTrafficPatterns, TrafficPattern::Bursty));

/**
 * Latency expectation attached to a request. The concrete deadline
 * is derived by the serving engine (class multiplier x the request's
 * reference-device estimate + a base slack), so classes stay
 * workload-relative: an interactive BERT layer is not held to the
 * deadline of an interactive 1x1 conv.
 */
enum class DeadlineClass
{
    Interactive = 0, ///< tightest slack (user is waiting)
    Standard = 1,    ///< ordinary online traffic
    Batch = 2,       ///< throughput-oriented, loose deadline
};

/** The deadline classes and their names. */
inline constexpr Term<DeadlineClass> kDeadlineClasses[] = {
    {DeadlineClass::Interactive, "interactive"},
    {DeadlineClass::Standard, "standard"},
    {DeadlineClass::Batch, "batch"},
};
static_assert(listsEveryValue(kDeadlineClasses, DeadlineClass::Batch));

constexpr int kNumDeadlineClasses = std::size(kDeadlineClasses);

/** One request arrival of the open-loop stream. */
struct Arrival
{
    int64_t id = 0;        ///< submission-sequence position
    double time_us = 0.0;  ///< simulated arrival timestamp
    DeadlineClass deadline_class = DeadlineClass::Standard;
    size_t pool_index = 0; ///< which workload-pool request arrived
};

/** Knobs of the traffic synthesizer. */
struct ArrivalOptions
{
    TrafficPattern pattern = TrafficPattern::Poisson;

    /** Mean arrival rate, requests per simulated millisecond. */
    double rate_rpms = 400.0;

    /** Arrival window in simulated milliseconds (the stream stops
     *  here; the serving engine drains what was admitted). */
    double duration_ms = 2.0;

    uint64_t seed = 1;

    /** Workload-pool size arrivals draw from (uniformly). */
    size_t pool_size = 1;

    /** Class mix; the remainder is Batch. */
    double interactive_fraction = 0.5;
    double standard_fraction = 0.35;

    // Bursty (MMPP-2) shape. The per-arrival stationary probability
    // of the burst state is p_calm_to_burst / (p_calm_to_burst +
    // p_burst_to_calm) (0.25 with the defaults); the generator
    // normalizes the state factors by the pi-weighted harmonic
    // combination so the long-run mean rate equals rate_rpms for
    // any factor/switch-probability choice.
    double calm_rate_factor = 0.4;
    double burst_rate_factor = 2.8;
    double p_calm_to_burst = 0.05; ///< per-arrival switch probability
    double p_burst_to_calm = 0.15;
};

/** Seeded open-loop traffic synthesizer. */
class ArrivalGenerator
{
  public:
    explicit ArrivalGenerator(ArrivalOptions options);

    /** The full arrival sequence — strictly increasing timestamps,
     *  ids 0..n-1 — identical for identical options. */
    std::vector<Arrival> generate() const;

    const ArrivalOptions &options() const { return options_; }

  private:
    ArrivalOptions options_;
};

} // namespace dstc

#endif // DSTC_SERVE_ARRIVAL_H
