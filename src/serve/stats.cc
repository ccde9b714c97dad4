#include "serve/stats.h"

#include <algorithm>
#include <cmath>

namespace dstc {

namespace {

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    return sorted[std::min(rank, sorted.size()) - 1];
}

} // namespace

LatencySummary
summarizeLatencies(std::vector<double> latencies)
{
    LatencySummary summary;
    summary.count = static_cast<int64_t>(latencies.size());
    if (latencies.empty())
        return summary;
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (double v : latencies)
        sum += v;
    summary.mean_us = sum / static_cast<double>(latencies.size());
    summary.p50_us = percentile(latencies, 0.50);
    summary.p95_us = percentile(latencies, 0.95);
    summary.p99_us = percentile(latencies, 0.99);
    summary.max_us = latencies.back();
    return summary;
}

} // namespace dstc
