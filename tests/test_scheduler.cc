#include "timing/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"

namespace dstc {
namespace {

TEST(Scheduler, EmptyWorkIsZero)
{
    EXPECT_EQ(lptMakespan({}, 4), 0);
    EXPECT_EQ(balancedLoad({}, 4), 0);
}

TEST(Scheduler, SingleUnitSums)
{
    EXPECT_EQ(lptMakespan({3, 5, 7}, 1), 15);
}

TEST(Scheduler, PerfectSplit)
{
    EXPECT_EQ(lptMakespan({4, 4, 4, 4}, 4), 4);
    EXPECT_EQ(lptMakespan({4, 4, 4, 4}, 2), 8);
}

TEST(Scheduler, LptBeatsNaiveOnSkew)
{
    // One giant item dominates; makespan equals it.
    EXPECT_EQ(lptMakespan({100, 1, 1, 1, 1}, 4), 100);
}

TEST(Scheduler, BoundsHold)
{
    Rng rng(81);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int64_t> work;
        int64_t total = 0, biggest = 0;
        const int n = 50 + static_cast<int>(rng.uniformInt(200));
        for (int i = 0; i < n; ++i) {
            int64_t w = 1 + static_cast<int64_t>(rng.uniformInt(1000));
            work.push_back(w);
            total += w;
            biggest = std::max(biggest, w);
        }
        const int units = 1 + static_cast<int>(rng.uniformInt(16));
        const int64_t makespan = lptMakespan(work, units);
        // Lower bounds: average load and the biggest item.
        EXPECT_GE(makespan, (total + units - 1) / units);
        EXPECT_GE(makespan, biggest);
        // LPT's 4/3 guarantee.
        EXPECT_LE(makespan,
                  (total / units) * 4 / 3 + biggest + 1);
        EXPECT_EQ(balancedLoad(work, units),
                  (total + units - 1) / units);
    }
}

TEST(Scheduler, MoreUnitsNeverSlower)
{
    Rng rng(82);
    std::vector<int64_t> work;
    for (int i = 0; i < 100; ++i)
        work.push_back(1 + static_cast<int64_t>(rng.uniformInt(50)));
    int64_t prev = lptMakespan(work, 1);
    for (int units = 2; units <= 64; units *= 2) {
        int64_t now = lptMakespan(work, units);
        EXPECT_LE(now, prev);
        prev = now;
    }
}

/** LPT by definition: largest item first, each onto the currently
 *  lightest unit found by a linear scan. */
int64_t
naiveLpt(std::vector<int64_t> work, int units)
{
    std::sort(work.begin(), work.end(), std::greater<int64_t>());
    std::vector<int64_t> loads(static_cast<size_t>(units), 0);
    for (int64_t w : work)
        *std::min_element(loads.begin(), loads.end()) += w;
    return *std::max_element(loads.begin(), loads.end());
}

TEST(Scheduler, MatchesNaiveLptOnEveryPath)
{
    // Small items over many units take the bucket queue; a few huge
    // items, negative sizes or a total far above the item count take
    // the heap. Both must be LPT exactly.
    Rng rng(83);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(400));
        const int units = 1 + static_cast<int>(rng.uniformInt(400));
        const int64_t range = int64_t{1}
                              << (1 + rng.uniformInt(trial % 3 ? 10 : 40));
        const bool negative = trial % 17 == 0;
        std::vector<int64_t> work;
        for (int i = 0; i < n; ++i) {
            int64_t w = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(range)));
            if (negative && i % 5 == 0)
                w = -w;
            work.push_back(w);
        }
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " n " << n << " units "
                     << units << " range " << range);
        EXPECT_EQ(lptMakespan(work, units), naiveLpt(work, units));
    }
}

} // namespace
} // namespace dstc
