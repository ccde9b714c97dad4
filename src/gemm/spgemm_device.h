/**
 * @file
 * Device-level bitmap SpGEMM (Sec. III-C): tiles the M x N output
 * into warp tiles, iterates K in chunks and skips empty tiles via
 * the two-level warp-bitmap. Values come from the lane-predicated
 * tile loop; time comes from one model, timeFromProfiles, which
 * folds the operands' per-line popcounts into per-warp cycles, the
 * SM scheduler's makespan and the memory model.
 */
#ifndef DSTC_GEMM_SPGEMM_DEVICE_H
#define DSTC_GEMM_SPGEMM_DEVICE_H

#include "gemm/sparsity_profile.h"
#include "gemm/spgemm_warp.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "timing/memory_model.h"
#include "timing/stats.h"

namespace dstc {

/** Knobs of the device-level SpGEMM execution. */
struct SpGemmOptions
{
    /** K extent of one two-level A/B tile: the one tiling knob (the
     *  warp tile is fixed at kWarpTile x kWarpTile). */
    int tile_k = 32;

    /** Use the warp-bitmap to skip empty tiles (two-level format). */
    bool two_level = true;

    /**
     * Operand datatype of the modeled datapath. The encoded entry
     * points take the authoritative QuantSpec off the encodings
     * (multiply() builds it from this field; multiplyEncoded trusts
     * the operands it is given); timeFromProfiles uses this field
     * directly — narrower lanes shrink the encoded operand traffic
     * and the int8/int4 pipes double/quadruple the MAC rate.
     */
    DataType dtype = DataType::Fp16;

    /** Compute values (tests/examples) or only time (big sweeps). */
    bool functional = true;

    /**
     * Worker threads of the functional tile loop, split over (lane
     * strip, block of output tiles) items, and of the timing model,
     * split over contiguous blocks of output tiles in (ti, tj) order:
     * 0 uses the process-shared pool (all hardware threads) as far as
     * the kernel's work repays a pool round trip, so small kernels
     * stay in the caller; 1 runs serially in the caller; N splits
     * over up to N threads. Results and stats are bitwise identical
     * for every setting — output tiles are disjoint, integer
     * counters reduce per block in block order, and the one
     * floating-point sum (the sparse write-back's output estimate)
     * adds per-tile terms in tile order.
     */
    int num_workers = 0;

    /**
     * Write D back bitmap-encoded when that is smaller than dense.
     * Off by default: the GEMM contract of the evaluation returns a
     * dense D (the next layer's GEMM re-encodes its own operands),
     * and the paper's high-sparsity speedups saturate consistently
     * with a dense write-back. Enable for fused sparse pipelines.
     */
    bool sparse_output = false;
};

/** Output of a device-level SpGEMM run. */
struct SpGemmResult
{
    Matrix<float> d;   ///< valid only when options.functional
    KernelStats stats;
};

/** The dual-side sparse Tensor Core SpGEMM kernel model. */
class SpGemmDevice
{
  public:
    explicit SpGemmDevice(const GpuConfig &cfg);

    /**
     * D = A x B on the dual-side sparse Tensor Core. Inputs are dense
     * logical matrices; the engine encodes them into the two-level
     * bitmap format (A column-major, B row-major within tiles), which
     * is charged to the memory model as the operands' footprint.
     */
    SpGemmResult multiply(const Matrix<float> &a, const Matrix<float> &b,
                          const SpGemmOptions &options = {}) const;

    /**
     * D = A x B over operands already in the two-level bitmap format
     * (A tiled kWarpTile x tile_k column-major, B tiled
     * tile_k x kWarpTile row-major, tile_k = options.tile_k). This
     * is the encode-once / multiply-many entry point: weights are
     * encoded once and reused across inferences. D is multiplyValues
     * (when options.functional); the stats are timeFromProfiles of
     * the encodings' profiles (SparsityProfile::fromEncodedA/B) at
     * their datatype.
     */
    SpGemmResult multiplyEncoded(const TwoLevelBitmapMatrix &a,
                                 const TwoLevelBitmapMatrix &b,
                                 const SpGemmOptions &options = {}) const;

    /**
     * The values of multiplyEncoded alone. The denser operand goes on
     * the 32 lanes (aOnLanes in gemm/lane_step.h); each of its strips
     * (a tile row of A, or a tile column of B) is expanded once, and
     * every output tile along the strip accumulates its non-empty
     * tile pairs from it through the lane-predicated strip kernel.
     * Then the deferred integer output scale is applied. D is bitwise
     * the same for either lane side and every worker count. Reads
     * only tile_k and num_workers off @p options.
     */
    Matrix<float> multiplyValues(const TwoLevelBitmapMatrix &a,
                                 const TwoLevelBitmapMatrix &b,
                                 const SpGemmOptions &options = {}) const;

    /**
     * The SpGEMM timing model, from popcount profiles (see
     * gemm/sparsity_profile.h): per live k-step two POPCs, one
     * BOHMMA and the predicated OHMMAs (Fig. 15), empty warp tiles
     * skipped (Sec. III-C). The output traffic counts whole (padded)
     * warp tiles. Both profiles must share the K dimension; @p a
     * groups tile the M dimension and @p b groups tile N.
     */
    KernelStats timeFromProfiles(const SparsityProfile &a,
                                 const SparsityProfile &b,
                                 const SpGemmOptions &options = {}) const;

    /**
     * The per-tile reference of timeFromProfiles: one outcome per
     * (ti, tj) tile filled k-step by k-step, reduced in tile order.
     * Every KernelStats field equals timeFromProfiles' bit for bit,
     * for every worker count. Defined in the test-only
     * `dstc_reference` library (reference/scalar_spgemm_timing.cc),
     * which the equivalence tests link.
     */
    KernelStats timeFromProfilesScalar(const SparsityProfile &a,
                                       const SparsityProfile &b,
                                       const SpGemmOptions &options = {})
        const;

    const GpuConfig &config() const { return cfg_; }

  private:
    /**
     * Fixed per-tile-pair pipeline cost: shared-memory operand
     * staging and accumulator spill/fill between K chunks. Amortized
     * over the SpWMMA's 32 k-steps this is small, but it keeps
     * fully-sparse tiles from looking free when they still had to be
     * scheduled.
     */
    static constexpr int64_t kTileOverheadCycles = 4;

    GpuConfig cfg_;
    SpGemmWarpEngine warp_engine_;
    MemoryModel memory_model_;
};

} // namespace dstc

#endif // DSTC_GEMM_SPGEMM_DEVICE_H
