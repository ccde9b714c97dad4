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
 *    millisecond ago is suddenly deep. The chain's shape is fixed:
 *    rate factors 0.4 (calm) and 2.8 (burst), per-arrival switch
 *    probabilities 0.05 (calm -> burst) and 0.15 (burst -> calm).
 *
 * The class mix is fixed too: kDeadlineClassSlos holds each class's
 * share of arrivals next to its SLO multiplier, so one row declares
 * both what a class sends and what it is promised.
 *
 * Everything is a pure function of ArrivalOptions (including the
 * seed) and the pool size: the same inputs always produce the
 * identical sequence, so serving runs — and their bitwise-replay
 * checks — are reproducible.
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
 * is deadlineFor's (class multiplier x the request's reference-device
 * estimate + a base slack), so classes stay workload-relative: an
 * interactive BERT layer is not held to the deadline of an
 * interactive 1x1 conv.
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

/** What one deadline class sends and is promised. */
struct DeadlineClassSlo
{
    DeadlineClass value;
    double share;    ///< fraction of the arrivals of this class
    double slo_mult; ///< deadline multiplier of the reference estimate
};

/** The class mix and the SLO multipliers, one row per class. */
inline constexpr DeadlineClassSlo kDeadlineClassSlos[] = {
    {DeadlineClass::Interactive, 0.5, 4.0},
    {DeadlineClass::Standard, 0.35, 12.0},
    {DeadlineClass::Batch, 0.15, 60.0},
};
static_assert(listsEveryValue(kDeadlineClassSlos, DeadlineClass::Batch));
static_assert(kDeadlineClassSlos[0].share >= 0.0 &&
                  kDeadlineClassSlos[1].share >= 0.0 &&
                  kDeadlineClassSlos[2].share >= 0.0 &&
                  kDeadlineClassSlos[0].share +
                          kDeadlineClassSlos[1].share +
                          kDeadlineClassSlos[2].share ==
                      1.0,
              "the class shares must form a distribution");

/** Fixed slack every deadline gets on top of its multiplier, in
 *  simulated us. */
inline constexpr double kSloBaseSlackUs = 25.0;

/** The absolute deadline of an arrival of @p dclass at @p arrival_us
 *  whose reference-device estimate is @p ref_estimate_us:
 *  arrival + slo_mult(class) x estimate + kSloBaseSlackUs. */
constexpr double
deadlineFor(DeadlineClass dclass, double arrival_us,
            double ref_estimate_us)
{
    return arrival_us +
           kDeadlineClassSlos[static_cast<int>(dclass)].slo_mult *
               ref_estimate_us +
           kSloBaseSlackUs;
}

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
};

/** Seeded open-loop traffic synthesizer. */
class ArrivalGenerator
{
  public:
    /** @param pool_size workload-pool size arrivals draw from
     *         (uniformly; >= 1). */
    ArrivalGenerator(ArrivalOptions options, size_t pool_size);

    /** The full arrival sequence — strictly increasing timestamps,
     *  ids 0..n-1 — identical for identical inputs. */
    std::vector<Arrival> generate() const;

    const ArrivalOptions &options() const { return options_; }

  private:
    ArrivalOptions options_;
    size_t pool_size_;
};

} // namespace dstc

#endif // DSTC_SERVE_ARRIVAL_H
