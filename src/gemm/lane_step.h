/**
 * @file
 * The functional accumulate of the SpGEMM tile loop, in the paper's
 * lane form (Fig. 15): one operand's line is the 32-lane predicate of
 * the OHMMAs, and every non-zero of the other operand's line does one
 * 32-lane multiply-add predicated by that line's bitmap word. Empty
 * k-steps never run: the step loop walks the AND of the two tiles'
 * line occupancy words (Sec. III-B3).
 *
 * Either operand can take the lanes; the loop puts the denser one
 * there (aOnLanes), since it does the most lane work per k-step. A
 * strip of the lane operand (one tile row of A, or one tile column
 * of B) is expanded once into a LaneStrip of dense lanes, and the
 * strip kernel then accumulates each output tile of the strip from
 * it. With A on the lanes the staged tile is the transpose of the
 * output tile (row = output column, lane = output row).
 *
 * The strip kernel is one body compiled for several x86-64 targets
 * (avx512f, avx2, the default); one of them is picked once per
 * process from the running CPU. Each output cell gets one FP32
 * multiply and one add per live k-step in ascending k, whichever
 * side is on the lanes (a * b and b * a are the same IEEE product),
 * so every variant and side is bitwise equal to
 * SpGemmWarpEngine::computeTileScalar. This header is internal to
 * the SpGEMM kernel and its tests.
 */
#ifndef DSTC_GEMM_LANE_STEP_H
#define DSTC_GEMM_LANE_STEP_H

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/bitmap.h"

namespace dstc {

/** Lanes of one warp-tile row: the 32 OHMMA output columns. */
constexpr int kLanes = 32;

/**
 * The lane side of a multiply: A takes the lanes iff its density
 * (nnz / size) is strictly higher than B's; on a tie B keeps them.
 * @p m and @p n are the output extents (the shared K cancels).
 */
constexpr bool
aOnLanes(int64_t a_nnz, int64_t b_nnz, int64_t m, int64_t n)
{
    return a_nnz * n > b_nnz * m;
}

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
 * One strip of the lane operand, expanded once: for each k-chunk,
 * the bitmap word of every line of its tile, each non-empty line as
 * kLanes dense values (0 off the line's bitmap; an empty line is
 * never a live step, so its lanes are left as they were), and the
 * tile's line occupancy word. A worker reuses one LaneStrip for
 * every strip it expands; the buffers keep their largest size
 * (tiles_k x tile_k x kLanes floats).
 */
class LaneStrip
{
  public:
    /**
     * Expand @p tiles, one per k-chunk of @p tile_k lines (the last
     * may be shorter). A null tile is a chunk whose warp bit is 0:
     * nothing is written for it, and the kernel must not be asked to
     * read it. Every tile's lines are at most kLanes long.
     */
    void expand(std::span<const BitmapMatrix *const> tiles, int tile_k);

    int tilesK() const { return tiles_k_; }

    /** Line s of chunk tk starts at lanes(tk) + s * kLanes. */
    const float *
    lanes(int tk) const
    {
        return lanes_.data() + static_cast<size_t>(tk) * tile_k_ * kLanes;
    }

    /** Bitmap word of line s of chunk tk is words(tk)[s]. */
    const uint32_t *
    words(int tk) const
    {
        return words_.data() + static_cast<size_t>(tk) * tile_k_;
    }

    /** Line occupancy word of chunk tk's tile. */
    uint64_t occupied(int tk) const { return occupied_[tk]; }

  private:
    int tile_k_ = 0;
    int tiles_k_ = 0;
    std::vector<float> lanes_;
    std::vector<uint32_t> words_;
    std::vector<uint64_t> occupied_;
};

/**
 * Accumulate one output tile of a strip into @p tile (row stride
 * kLanes). For every chunk tk with a non-null @p other[tk] (the
 * other operand's tile at that chunk), and every k-step s at which
 * both lines are non-empty, in ascending order: for every set bit p
 * of other's line s, with its next value as v, row p of @p tile
 * gains v * lane[j] on each lane j whose bit is set in the strip's
 * word, and -0.0f (the additive identity) on every other lane. Rows
 * at no set bit are not touched.
 */
using StripKernelFn = void (*)(float *tile, const LaneStrip &strip,
                               const BitmapMatrix *const *other);

/** One compiled strip-kernel variant. */
struct StripKernelVariant
{
    const char *name; ///< target it was compiled for
    StripKernelFn fn;
};

/** The variants the running CPU supports, widest first; the last
 *  one is the default-target build, which every CPU runs. */
std::span<const StripKernelVariant> stripKernelVariants();

/** The widest supported variant, chosen once per process. */
StripKernelFn stripKernel();

/**
 * Copy the (rows x cols) output region at @p src (row stride @p ld)
 * into lane tile @p tile, transposed when A is on the lanes.
 */
void loadLaneTile(const float *src, int ld, int rows, int cols,
                  bool a_on_lanes, float *tile);

/** The inverse of loadLaneTile: write the (rows x cols) output region
 *  held in @p tile to @p dst (row stride @p ld). */
void storeLaneTile(const float *tile, int rows, int cols,
                   bool a_on_lanes, float *dst, int ld);

} // namespace dstc

#endif // DSTC_GEMM_LANE_STEP_H
