#include "serve/arrival.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace dstc {

namespace {

// The bursty MMPP-2 shape: state rate factors and per-arrival switch
// probabilities. The per-arrival stationary probability of the burst
// state is kCalmToBurst / (kCalmToBurst + kBurstToCalm) = 0.25.
constexpr double kCalmRateFactor = 0.4;
constexpr double kBurstRateFactor = 2.8;
constexpr double kCalmToBurst = 0.05;
constexpr double kBurstToCalm = 0.15;

} // namespace

ArrivalGenerator::ArrivalGenerator(ArrivalOptions options,
                                   size_t pool_size)
    : options_(options), pool_size_(pool_size)
{
    DSTC_ASSERT(options_.rate_rpms > 0.0,
                "arrival rate must be positive");
    DSTC_ASSERT(options_.duration_ms >= 0.0,
                "arrival window cannot be negative");
    DSTC_ASSERT(pool_size_ >= 1,
                "arrivals need a workload pool to draw from");
}

std::vector<Arrival>
ArrivalGenerator::generate() const
{
    std::vector<Arrival> arrivals;
    Rng rng(options_.seed ^ 0x5e21e1a7ull);
    const double duration_us = options_.duration_ms * 1e3;
    const double mean_gap_us = 1e3 / options_.rate_rpms;

    // Normalize the state factors so the long-run mean rate equals
    // rate_rpms. The chain switches per *arrival*, so the fraction
    // of arrivals in each state is the chain's stationary
    // distribution — but the fraction of *time* is weighted by the
    // state's mean gap, so the expected gap is the pi-weighted
    // harmonic combination of the factors; dividing every gap by it
    // restores E[gap] = 1 / rate.
    constexpr double pi_burst =
        kCalmToBurst / (kCalmToBurst + kBurstToCalm);
    const double gap_norm =
        options_.pattern == TrafficPattern::Bursty
            ? (1.0 - pi_burst) / kCalmRateFactor +
                  pi_burst / kBurstRateFactor
            : 1.0;

    bool burst = false; // MMPP starts calm
    double t = 0.0;
    while (true) {
        double gap_scale = 1.0;
        if (options_.pattern == TrafficPattern::Bursty) {
            const double factor =
                burst ? kBurstRateFactor : kCalmRateFactor;
            gap_scale = 1.0 / (factor * gap_norm);
        }
        // Exponential inter-arrival; 1 - u keeps the argument of
        // log() in (0, 1] (uniform() can return exactly 0).
        t += -std::log(1.0 - rng.uniform()) * mean_gap_us * gap_scale;
        if (t >= duration_us)
            break;

        Arrival a;
        a.id = static_cast<int64_t>(arrivals.size());
        a.time_us = t;
        // The class whose running share first exceeds u; the last
        // class takes the remainder.
        const double u = rng.uniform();
        int c = 0;
        double share_sum = kDeadlineClassSlos[0].share;
        while (c + 1 < kNumDeadlineClasses && u >= share_sum)
            share_sum += kDeadlineClassSlos[++c].share;
        a.deadline_class = kDeadlineClassSlos[c].value;
        a.pool_index = static_cast<size_t>(rng.uniformInt(pool_size_));
        arrivals.push_back(a);

        if (options_.pattern == TrafficPattern::Bursty) {
            if (rng.bernoulli(burst ? kBurstToCalm : kCalmToBurst))
                burst = !burst;
        }
    }
    return arrivals;
}

} // namespace dstc
