/**
 * @file
 * The functional accumulate of the warp-tile kernel, in the paper's
 * lane form (Fig. 15): each live k-step expands the B line into 32
 * dense lanes once, and every A non-zero then does one 32-lane
 * multiply-add predicated by the B line's bitmap word. Empty k-steps
 * never run: the step loop walks the AND of the two tiles' line
 * occupancy words (Sec. III-B3).
 *
 * The lane step is one body compiled for several x86-64 targets
 * (avx512f, avx2, the default); one of them is picked once per
 * process from the running CPU. Every variant performs the same
 * FP32 multiply and add per on-lane cell in k order, so all of them
 * are bitwise equal to SpGemmWarpEngine::computeTileScalar. This
 * header is internal to the SpGEMM kernel and its tests.
 */
#ifndef DSTC_GEMM_LANE_STEP_H
#define DSTC_GEMM_LANE_STEP_H

#include <bit>
#include <cstdint>
#include <span>

#include "sparse/bitmap.h"

namespace dstc {

/** Lanes of one warp-tile row: the 32 OHMMA output columns. */
constexpr int kLanes = 32;

/**
 * One live k-step on a lane tile (row stride kLanes): for every set
 * bit p of @p a_word, in ascending order, with the next value of
 * @p a_vals as av, row p of @p tile gains av * b_lane[j] on each lane
 * j whose bit is set in @p b_word, and -0.0f (the additive identity)
 * on every other lane.
 */
using LaneStepFn = void (*)(float *tile, uint32_t a_word,
                            const float *a_vals, uint32_t b_word,
                            const float *b_lane);

/** One compiled lane-step variant. */
struct LaneStepVariant
{
    const char *name; ///< target it was compiled for
    LaneStepFn fn;
};

/** The variants the running CPU supports, widest first; the last
 *  one is the default-target build, which every CPU runs. */
std::span<const LaneStepVariant> laneStepVariants();

/** The widest supported variant, chosen once per process. */
LaneStepFn laneStep();

/**
 * Call @p f(step) for every k-step at which both tiles' lines are
 * non-empty, in ascending k order. Up to 64 k-steps this walks the
 * set bits of the AND of the occupancy words (k-compaction); beyond
 * that the words are all ones, so each step checks its line counts.
 */
template <class F>
void
forEachLiveStep(const BitmapMatrix &a_tile, const BitmapMatrix &b_tile,
                F &&f)
{
    const int k = a_tile.cols();
    if (k <= 64) {
        for (uint64_t live =
                 a_tile.occupiedLines() & b_tile.occupiedLines();
             live; live &= live - 1)
            f(std::countr_zero(live));
        return;
    }
    for (int step = 0; step < k; ++step)
        if (a_tile.lineNnz(step) != 0 && b_tile.lineNnz(step) != 0)
            f(step);
}

/**
 * Accumulate the product of one (m x k) column-major A tile and one
 * (k x n) row-major B tile, m, n <= kLanes, into @p tile (row stride
 * kLanes; only rows < m are touched, and lanes >= n only ever gain
 * -0.0f) through lane step @p step. Operands are the encoders'
 * pre-quantized value lanes.
 */
void accumulateTile(const BitmapMatrix &a_tile,
                    const BitmapMatrix &b_tile, float *tile,
                    LaneStepFn step);

} // namespace dstc

#endif // DSTC_GEMM_LANE_STEP_H
