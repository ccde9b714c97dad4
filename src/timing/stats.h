/**
 * @file
 * Result record every timed kernel returns: enough breakdown to
 * reconstruct each figure's series and to explain *why* a point is
 * fast or slow (compute vs memory bound, merge overhead, skips).
 */
#ifndef DSTC_TIMING_STATS_H
#define DSTC_TIMING_STATS_H

#include <cstdint>
#include <string>

#include "isa/isa.h"

namespace dstc {

/** What limited the kernel's execution time. */
enum class Bound
{
    Compute,
    Memory,
};

/** Timing and instruction statistics of one simulated kernel. */
struct KernelStats
{
    std::string name;

    // Instruction accounting (aggregated over all warps).
    InstructionMix mix;
    int64_t warp_tiles = 0;
    int64_t warp_tiles_skipped = 0; ///< skipped via the warp-bitmap
    int64_t merge_cycles = 0;       ///< accumulation-buffer writeback

    // Derived times.
    double compute_us = 0.0;
    double memory_us = 0.0;
    double dram_bytes = 0.0;
    double launch_us = 0.0;
    Bound bound = Bound::Compute;

    /** End-to-end kernel time. */
    double
    timeUs() const
    {
        return (compute_us > memory_us ? compute_us : memory_us) +
               launch_us;
    }

    KernelStats &
    operator+=(const KernelStats &other)
    {
        mix += other.mix;
        warp_tiles += other.warp_tiles;
        warp_tiles_skipped += other.warp_tiles_skipped;
        merge_cycles += other.merge_cycles;
        compute_us += other.compute_us;
        memory_us += other.memory_us;
        dram_bytes += other.dram_bytes;
        launch_us += other.launch_us;
        return *this;
    }

    /** Field-for-field equality (doubles compared exactly): the
     *  bitwise-determinism comparator of the cluster and serving
     *  replay contracts. */
    bool operator==(const KernelStats &) const = default;
};

} // namespace dstc

#endif // DSTC_TIMING_STATS_H
