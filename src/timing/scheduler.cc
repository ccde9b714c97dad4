#include "timing/scheduler.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace dstc {

namespace {

/**
 * LPT over a bucket queue of unit loads. Each step adds an item to
 * the lightest load, so the lightest load never decreases and every
 * load lies in [lightest, lightest + biggest]: a ring of biggest + 1
 * per-load unit counts holds the whole state. Items are visited
 * largest first by their size histogram, and a run of equal items
 * moves every unit sitting at the lightest load at once. Units at
 * equal loads are interchangeable, so the loads evolve exactly as
 * under the heap.
 */
int64_t
bucketMakespan(const std::vector<int64_t> &work, int units,
               int64_t biggest)
{
    const int64_t ring = biggest + 1;
    std::vector<int64_t> items(static_cast<size_t>(ring), 0);
    for (int64_t w : work)
        ++items[static_cast<size_t>(w)];
    std::vector<int64_t> loads(static_cast<size_t>(ring), 0);
    loads[0] = units;
    int64_t lightest = 0, slot = 0; // slot == lightest % ring
    for (int64_t w = biggest; w > 0; --w) {
        for (int64_t left = items[static_cast<size_t>(w)]; left > 0;) {
            while (loads[static_cast<size_t>(slot)] == 0) {
                ++lightest;
                slot = slot + 1 == ring ? 0 : slot + 1;
            }
            const int64_t moved =
                std::min(left, loads[static_cast<size_t>(slot)]);
            const int64_t to = slot + w < ring ? slot + w : slot + w - ring;
            loads[static_cast<size_t>(slot)] -= moved;
            loads[static_cast<size_t>(to)] += moved;
            left -= moved;
        }
    }
    int64_t heaviest = lightest + biggest;
    while (loads[static_cast<size_t>(heaviest % ring)] == 0)
        --heaviest;
    return heaviest;
}

/** Above this many bucket-queue steps per item the heap is cheaper. */
constexpr int64_t kBucketStepsPerItem = 64;

/** Largest item the bucket queue takes: bounds its two rings. */
constexpr int64_t kMaxBucketItem = int64_t{1} << 16;

} // namespace

int64_t
lptMakespan(std::vector<int64_t> work, int units)
{
    DSTC_ASSERT(units > 0);
    if (work.empty())
        return 0;
    // Cycle counts are small non-negative integers: the bucket queue
    // walks the loads' value range once, O(items + biggest + total /
    // units), where the heap pays O(items log items).
    const auto [lo, hi] = std::minmax_element(work.begin(), work.end());
    const int64_t items = static_cast<int64_t>(work.size());
    if (*lo >= 0 && *hi <= kMaxBucketItem &&
        *hi <= kBucketStepsPerItem * items) {
        int64_t total = 0;
        for (int64_t w : work)
            total += w;
        if (total / units <= kBucketStepsPerItem * items)
            return bucketMakespan(work, units, *hi);
    }
    std::sort(work.begin(), work.end(), std::greater<int64_t>());
    std::priority_queue<int64_t, std::vector<int64_t>,
                        std::greater<int64_t>>
        loads;
    for (int i = 0; i < units; ++i)
        loads.push(0);
    for (int64_t w : work) {
        int64_t lightest = loads.top();
        loads.pop();
        loads.push(lightest + w);
    }
    int64_t makespan = 0;
    while (!loads.empty()) {
        makespan = loads.top();
        loads.pop();
    }
    return makespan;
}

int64_t
balancedLoad(const std::vector<int64_t> &work, int units)
{
    DSTC_ASSERT(units > 0);
    int64_t total = 0;
    for (int64_t w : work)
        total += w;
    return (total + units - 1) / units;
}

} // namespace dstc
