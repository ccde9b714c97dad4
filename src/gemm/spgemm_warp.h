/**
 * @file
 * Warp-level bitmap SpGEMM engine (Sec. III-B): executes one warp
 * tile's outer-product multiply on the OTC model, both functionally
 * (producing the exact partial-sum values) and in time (building the
 * predicated SpWMMA instruction stream and charging the merge step).
 * These per-tile stats are the warp-level model of the paper's
 * figures (Fig. 5, Fig. 19) and of the scalar-reference pins; the
 * device-level SpGEMM times whole kernels from popcount profiles
 * (SpGemmDevice::timeFromProfiles) instead.
 *
 * The functional path works on lanes (gemm/lane_step.h): the line
 * of the denser tile is the 32-lane predicate of the OHMMAs, each
 * non-zero of the other tile's line does one predicated 32-lane
 * multiply-add into a staged 32x32 LaneTile, and the AND of the two
 * tiles' line-occupancy words compacts empty k-steps away. The
 * original per-element path survives as computeTileScalar — the
 * reference the equivalence tests and the before/after bench compare
 * against.
 */
#ifndef DSTC_GEMM_SPGEMM_WARP_H
#define DSTC_GEMM_SPGEMM_WARP_H

#include <cstdint>
#include <vector>

#include "gemm/lane_step.h"
#include "isa/program_builder.h"
#include "sparse/bitmap.h"
#include "tensor/matrix.h"
#include "timing/accum_buffer.h"
#include "timing/gpu_config.h"
#include "timing/merge_model.h"

namespace dstc {

/** Timing outcome of one warp tile's SpWMMA execution. */
struct WarpTileResult
{
    InstructionMix mix;
    int64_t issue_cycles = 0;   ///< tensor-core issue slots consumed
    int64_t merge_accesses = 0; ///< scattered accumulations performed
    int64_t merge_cycles = 0;   ///< accumulation-buffer time
    int64_t scalar_cycles = 0;  ///< POPC/predicate work per k-step
    int64_t macs = 0;           ///< real multiply-accumulates

    /**
     * Warp-visible cycles: the merge and scalar (POPC + predicate
     * setup) pipelines overlap tensor issue, so the slowest of the
     * three dominates (Sec. III-B4). The scalar term is the floor
     * that keeps fully-skipped k-steps from being free — the warp
     * still fetches and evaluates their predication.
     */
    int64_t
    cycles() const
    {
        int64_t c = issue_cycles > merge_cycles ? issue_cycles
                                                : merge_cycles;
        return c > scalar_cycles ? c : scalar_cycles;
    }

    WarpTileResult &
    operator+=(const WarpTileResult &other)
    {
        mix += other.mix;
        issue_cycles += other.issue_cycles;
        merge_accesses += other.merge_accesses;
        merge_cycles += other.merge_cycles;
        scalar_cycles += other.scalar_cycles;
        macs += other.macs;
        return *this;
    }
};

/**
 * A warp tile's FP32 accumulator in lane layout: 32 rows of 32
 * lanes, row stride 32, so the lane loop runs on a fixed stride with
 * no alias checks. Element (r, c) is v[r * kDim + c].
 */
struct alignas(64) LaneTile
{
    static constexpr int kDim = 32;
    float v[kDim * kDim] = {};
};

/**
 * Reusable per-worker scratch arena of the tile path: the condensed
 * positions and merge trace of the detailed-merge simulator, the
 * lane tile that stages a strided accumulator, and the expanded lane
 * operand. One arena serves any
 * number of computeTile calls without reallocating; each concurrent
 * worker owns its own.
 */
struct WarpScratch
{
    std::vector<int> pos_a;    ///< A-line non-zero positions
    std::vector<int> pos_b;    ///< B-line non-zero positions
    MergeTrace trace;          ///< detailed-merge address stream
    LaneTile stage;            ///< strided-accumulator staging
    LaneStrip strip;           ///< the lane tile, expanded

    /** Size the buffers for tiles up to @p m x @p n. */
    void
    reserveTile(int m, int n)
    {
        pos_a.resize(static_cast<size_t>(m));
        pos_b.resize(static_cast<size_t>(n));
    }
};

/** Executes warp tiles on the modeled outer-product Tensor Core. */
class SpGemmWarpEngine
{
  public:
    explicit SpGemmWarpEngine(const GpuConfig &cfg);

    /**
     * Functional + timed execution of one warp tile.
     *
     * The timing walks the live k-steps (both lines non-empty) and
     * charges each one's predicated SpWMMA set and merge. When
     * @p accum is non-null the partial sums accumulate into it:
     * element (r, c) of the tile lands at accum[r * ld + c], staged
     * through @p scratch's lane tile. This is the device loop's strip
     * kernel on a one-tile strip: the denser tile (aOnLanes) is
     * expanded into 32 lanes, and each non-zero of the other tile's
     * line, in position order, adds its 32-lane product predicated
     * by the lane line's bitmap word (Fig. 15). Each cell gets one
     * multiply and one add per live k-step, in k order, so the
     * result is bitwise that of computeTileScalar. Nothing outside
     * the (m x n) region is read or written.
     *
     * @param a_tile column-major bitmap of the (m x k) A tile
     * @param b_tile row-major bitmap of the (k x n) B tile
     * @param accum  if non-null, the accumulator's (0, 0) element
     * @param ld     the accumulator's row stride
     * @param detailed_merge use the cycle-accurate bank simulator
     *               instead of the analytic merge model
     * @param scratch caller-owned scratch arena, reused across calls
     */
    WarpTileResult computeTile(const BitmapMatrix &a_tile,
                               const BitmapMatrix &b_tile, float *accum,
                               int ld, bool detailed_merge,
                               WarpScratch &scratch) const;

    /**
     * Convenience overload over a whole Matrix accumulator (tests,
     * single-tile benches); uses a per-thread scratch arena.
     */
    WarpTileResult computeTile(const BitmapMatrix &a_tile,
                               const BitmapMatrix &b_tile,
                               Matrix<float> *accum,
                               bool detailed_merge = false) const;

    /**
     * The pre-word-parallel per-element path, kept verbatim as the
     * reference model: the equivalence tests assert the lane path
     * (every compiled strip-kernel variant, with either operand on
     * the lanes) reproduces its results,
     * stats and cycles bit-for-bit, and the micro bench reports
     * speedup against it. Unlike the lane path —
     * which multiplies the pre-quantized lane the encoder filled —
     * this reference re-quantizes each raw operand value through
     * @p spec_a / @p spec_b per element, so the pin also verifies
     * that encode-time quantization equals compute-time
     * quantization. Specs default to the FP16 datapath.
     *
     * Defined in the test-only `dstc_reference` library (see
     * reference/scalar_spgemm.cc), which tests and benches link on
     * top of `dstc`; the shipped library carries the lane kernel
     * alone.
     */
    WarpTileResult computeTileScalar(const BitmapMatrix &a_tile,
                                     const BitmapMatrix &b_tile,
                                     Matrix<float> *accum,
                                     bool detailed_merge = false,
                                     const QuantSpec &spec_a = {},
                                     const QuantSpec &spec_b = {}) const;

    const SpWmmaShape &shape() const { return shape_; }

  private:
    GpuConfig cfg_;
    SpWmmaShape shape_;
    MergeCostModel merge_model_;
};

} // namespace dstc

#endif // DSTC_GEMM_SPGEMM_WARP_H
