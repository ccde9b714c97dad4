/**
 * @file
 * Analytic cost model for the merge (gather-accumulate-scatter) step.
 *
 * The cycle-accurate AccumBufferSim is exact but too slow to invoke
 * per k-step when sweeping 4096x4096 GEMMs, so the device-level
 * SpGEMM path uses this closed-form approximation instead. The tests
 * validate it against the exact simulator on randomized traces.
 */
#ifndef DSTC_TIMING_MERGE_MODEL_H
#define DSTC_TIMING_MERGE_MODEL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dstc {

/** Closed-form accumulation-buffer merge cost. */
class MergeCostModel
{
  public:
    /**
     * @param banks             accumulation-buffer banks
     * @param operand_collector whether the collector overlaps
     *                          accesses across instructions
     */
    MergeCostModel(int banks, bool operand_collector);

    /**
     * Expected cycles for one instruction that scatters @p accesses
     * values (only meaningful without the collector, where each
     * instruction drains serially at its max bank load).
     */
    double perInstrCycles(int accesses) const;

    /**
     * Expected merge cycles of a warp tile whose merge phase issues
     * @p instrs instructions with @p total_accesses scattered
     * accumulations in total.
     *
     * With the collector: banks drain in parallel across in-flight
     * instructions, so throughput approaches one access per bank per
     * cycle — cycles ~ total/banks.
     * Without it: each instruction serializes at its own max bank
     * load; cycles ~ sum of per-instruction max loads.
     */
    double tileCycles(int64_t total_accesses, int64_t instrs) const;

    int banks() const { return banks_; }

    /**
     * The process-shared table registry holds at most this many bank
     * counts; beyond it the oldest slot is evicted (FIFO). Models
     * alive at eviction keep their table through the shared_ptr, and
     * the values are pure functions of (banks, n), so a re-created
     * table holds identical numbers.
     */
    static constexpr size_t kMemoRegistryBound = 8;

    /** Bank counts currently in the shared registry (test hook). */
    static size_t memoRegistryEntries();

  private:
    /**
     * Monte-Carlo estimate (deterministic) of the expected maximum
     * bank load when @p n accesses land on banks_ banks: a read of
     * the per-bank-count table up to 8 * banks_, a closed form above.
     *
     * The table is a prefix-max over per-bucket Monte-Carlo
     * estimates, built whole when the first model of its bank count
     * is constructed, so every value is a pure function of n:
     * concurrent warp tiles — and 1-vs-N-worker runs — always read
     * identical costs.
     */
    double expectedMaxLoad(int n) const;

    int banks_;
    bool operand_collector_;
    double log_banks_;
    /** expectedMaxLoad over [0, 8 * banks_], shared per bank count */
    std::shared_ptr<const std::vector<double>> max_load_;
};

} // namespace dstc

#endif // DSTC_TIMING_MERGE_MODEL_H
