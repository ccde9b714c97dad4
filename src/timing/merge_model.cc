#include "timing/merge_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace dstc {

namespace {

/** Bucket small n so memoization stays bounded during big sweeps. */
int
maxLoadBucket(int n)
{
    return n > 128 ? ((n + 31) / 32) * 32 : n;
}

/** The bucket following @p b in the prefix-max chain: unit steps up
 *  to 128, then the 32-aligned buckets maxLoadBucket produces. */
int
nextBucket(int b)
{
    return b < 128 ? b + 1 : (b == 128 ? 160 : b + 32);
}

/**
 * Deterministic Monte Carlo: bucket balls into banks bins and
 * average the max load. 96 trials keeps estimator noise ~1%.
 */
double
rawMaxLoad(int bucket, int banks)
{
    constexpr int kTrials = 96;
    Rng rng(0xd5f0c0de ^ static_cast<uint64_t>(bucket));
    std::vector<int> load(banks);
    double sum = 0.0;
    for (int t = 0; t < kTrials; ++t) {
        std::fill(load.begin(), load.end(), 0);
        for (int i = 0; i < bucket; ++i)
            ++load[rng.uniformInt(static_cast<uint64_t>(banks))];
        sum += *std::max_element(load.begin(), load.end());
    }
    return sum / kTrials;
}

/**
 * expectedMaxLoad of every n in [0, 8 * banks] (above it the closed
 * form takes over). The Monte-Carlo estimates are made monotone in n
 * (estimator noise must never invert the cost ordering) by a
 * prefix-max over the whole bucket chain, so each entry is a pure
 * function of (banks, bucket).
 */
std::vector<double>
maxLoadTable(int banks)
{
    const int top = 8 * banks;
    const int top_bucket = maxLoadBucket(top);
    std::vector<double> prefix(static_cast<size_t>(top_bucket) + 1, 0.0);
    prefix[1] = 1.0;
    double running = 1.0;
    for (int b = 2; b <= top_bucket; b = nextBucket(b)) {
        running = std::max(running, rawMaxLoad(b, banks));
        prefix[static_cast<size_t>(b)] = running;
    }
    std::vector<double> table(static_cast<size_t>(top) + 1, 0.0);
    for (int n = 1; n <= top; ++n)
        table[static_cast<size_t>(n)] =
            prefix[static_cast<size_t>(maxLoadBucket(n))];
    return table;
}

/**
 * Process-wide table registry, one slot per bank count, bounded at
 * kMemoRegistryBound entries with FIFO eviction. Eviction only drops
 * the registry's reference: live models keep their table through the
 * shared_ptr, and the values are pure functions of (banks, n), so a
 * re-created table holds identical numbers — the bound trades
 * recomputation for a hard memory ceiling when callers sweep many
 * bank counts.
 */
struct MemoRegistry
{
    std::mutex mu;
    std::map<int, std::shared_ptr<const std::vector<double>>> slots;
    std::vector<int> fifo; ///< insertion order, oldest first
};

MemoRegistry &
memoRegistry()
{
    static MemoRegistry registry;
    return registry;
}

} // namespace

MergeCostModel::MergeCostModel(int banks, bool operand_collector)
    : banks_(banks), operand_collector_(operand_collector)
{
    DSTC_ASSERT(banks > 0);
    log_banks_ = std::log(static_cast<double>(banks));
    // One table per bank count, shared across every model instance in
    // the process: SpGemmDevice is constructed per plan-run, and
    // re-estimating the bucket chain each run would dominate small
    // kernels.
    MemoRegistry &registry = memoRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.slots.find(banks);
    if (it != registry.slots.end()) {
        max_load_ = it->second;
        return;
    }
    while (registry.slots.size() >= kMemoRegistryBound) {
        registry.slots.erase(registry.fifo.front());
        registry.fifo.erase(registry.fifo.begin());
    }
    max_load_ =
        std::make_shared<const std::vector<double>>(maxLoadTable(banks));
    registry.slots.emplace(banks, max_load_);
    registry.fifo.push_back(banks);
}

size_t
MergeCostModel::memoRegistryEntries()
{
    MemoRegistry &registry = memoRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    return registry.slots.size();
}

double
MergeCostModel::expectedMaxLoad(int n) const
{
    if (n <= 0)
        return 0.0;
    // Closed form for large n: mean load + the Gaussian tail of the
    // maximum over banks_ bins.
    if (n > 8 * banks_) {
        const double mean = static_cast<double>(n) / banks_;
        return mean + std::sqrt(2.0 * mean * log_banks_);
    }
    // A plain read of an immutable table: the merge cost sits inside
    // the parallel tile loops, which share it without a lock.
    return (*max_load_)[static_cast<size_t>(n)];
}

double
MergeCostModel::perInstrCycles(int accesses) const
{
    return expectedMaxLoad(accesses);
}

double
MergeCostModel::tileCycles(int64_t total_accesses, int64_t instrs) const
{
    if (total_accesses <= 0 || instrs <= 0)
        return 0.0;
    if (operand_collector_) {
        // Banks drain in parallel across the collector window, so
        // the makespan approaches the maximum total bank load; the
        // 1.1 covers finite-window scheduling losses (validated vs
        // the exact simulator in tests/test_merge_model.cc).
        const int capped = static_cast<int>(
            std::min<int64_t>(total_accesses, 1 << 20));
        return expectedMaxLoad(capped) * 1.1;
    }
    const int avg = static_cast<int>(
        std::max<int64_t>(1, total_accesses / instrs));
    return static_cast<double>(instrs) * perInstrCycles(avg);
}

} // namespace dstc
