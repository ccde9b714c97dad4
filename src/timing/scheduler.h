/**
 * @file
 * Warp-to-subcore work distribution. The device-level kernel time of
 * a set of independent warp tiles is the makespan of assigning their
 * cycle counts onto the GPU's sub-cores (each sub-core owns one OTC
 * pair). LPT greedy assignment models the hardware's work stealing
 * via oversubscribed thread blocks.
 */
#ifndef DSTC_TIMING_SCHEDULER_H
#define DSTC_TIMING_SCHEDULER_H

#include <cstdint>
#include <vector>

namespace dstc {

/**
 * Longest-processing-time-first makespan of @p work items on
 * @p units identical units, in the work's cycle units. Small
 * non-negative cycle counts take a bucket queue over the load values
 * instead of a heap; both give the same makespan.
 */
int64_t lptMakespan(std::vector<int64_t> work, int units);

/**
 * Average-load lower bound (perfect balance): sum(work) / units,
 * rounded up. Useful to report imbalance.
 */
int64_t balancedLoad(const std::vector<int64_t> &work, int units);

} // namespace dstc

#endif // DSTC_TIMING_SCHEDULER_H
