#include "serve/arrival.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace dstc {

ArrivalGenerator::ArrivalGenerator(ArrivalOptions options)
    : options_(options)
{
    DSTC_ASSERT(options_.rate_rpms > 0.0,
                "arrival rate must be positive");
    DSTC_ASSERT(options_.duration_ms >= 0.0,
                "arrival window cannot be negative");
    DSTC_ASSERT(options_.pool_size >= 1,
                "arrivals need a workload pool to draw from");
    DSTC_ASSERT(options_.interactive_fraction >= 0.0 &&
                    options_.standard_fraction >= 0.0 &&
                    options_.interactive_fraction +
                            options_.standard_fraction <=
                        1.0,
                "class fractions must be a sub-probability");
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
    double gap_norm = 1.0;
    if (options_.pattern == TrafficPattern::Bursty) {
        const double pi_burst =
            options_.p_calm_to_burst /
            (options_.p_calm_to_burst + options_.p_burst_to_calm);
        gap_norm = (1.0 - pi_burst) / options_.calm_rate_factor +
                   pi_burst / options_.burst_rate_factor;
    }

    bool burst = false; // MMPP starts calm
    double t = 0.0;
    while (true) {
        double gap_scale = 1.0;
        if (options_.pattern == TrafficPattern::Bursty) {
            const double factor = burst ? options_.burst_rate_factor
                                        : options_.calm_rate_factor;
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
        const double u = rng.uniform();
        if (u < options_.interactive_fraction)
            a.deadline_class = DeadlineClass::Interactive;
        else if (u < options_.interactive_fraction +
                         options_.standard_fraction)
            a.deadline_class = DeadlineClass::Standard;
        else
            a.deadline_class = DeadlineClass::Batch;
        a.pool_index = static_cast<size_t>(
            rng.uniformInt(options_.pool_size));
        arrivals.push_back(a);

        if (options_.pattern == TrafficPattern::Bursty) {
            const double p_switch = burst ? options_.p_burst_to_calm
                                          : options_.p_calm_to_burst;
            if (rng.bernoulli(p_switch))
                burst = !burst;
        }
    }
    return arrivals;
}

} // namespace dstc
