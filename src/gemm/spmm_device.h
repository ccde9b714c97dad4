/**
 * @file
 * Device-level SpMM (sparse A x dense B): the real-matrix workload
 * of the ultra-sparse regime (GNN adjacency, SuiteSparse-style
 * inputs). Two A-side storage formats share one kernel model:
 *
 *  - narrow (8x1 vectors): each 8-row strip scans its level-1
 *    vector-bitmap words by popcount/ctz and issues one OHMMA A-chunk
 *    per non-empty vector against the dense B rows — empty vectors
 *    cost nothing beyond the word scan, and the encoded footprint is
 *    proportional to the non-zeros;
 *  - wide (32-wide two-level): the SpGEMM machinery with a fully
 *    dense B side, which wins back at DNN-style densities where the
 *    32x32 tiles are well filled.
 *
 * The multiplies compute values only; the timing model reads
 * popcount profiles (timeNarrowFromProfile / timeWideFromProfile),
 * so a plan prices either format without encoding A. Every
 * functional path here (narrow, wide, and the scalar reference)
 * accumulates each output cell's products in ascending-k order from
 * identically quantized operands, so the results are bitwise
 * identical across formats and worker counts.
 */
#ifndef DSTC_GEMM_SPMM_DEVICE_H
#define DSTC_GEMM_SPMM_DEVICE_H

#include "gemm/sparsity_profile.h"
#include "gemm/spgemm_device.h"
#include "sparse/narrow_tile.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "timing/memory_model.h"
#include "timing/stats.h"

namespace dstc {

/**
 * The dual-side sparse Tensor Core SpMM kernel model. Reuses
 * SpGemmOptions (dtype and tile_k for the timing, num_workers for the
 * multiplies); the narrow/wide format choice is the caller's — the
 * backend layer drives it off SpmmFormat and the cost model.
 */
class SpmmDevice
{
  public:
    explicit SpmmDevice(const GpuConfig &cfg);

    /** D = A x B with A in the narrow-tile (8x1) encoding. Reads
     *  only num_workers off @p options. */
    Matrix<float> multiplyNarrow(const NarrowTileMatrix &a,
                                 const Matrix<float> &b,
                                 const QuantSpec &spec_b,
                                 const SpGemmOptions &options = {}) const;

    /**
     * D = A x B with A in the 32-wide two-level encoding
     * (kWarpTile x tile_k, Major::Col) and B dense. Reads only
     * num_workers off @p options.
     */
    Matrix<float> multiplyWide(const TwoLevelBitmapMatrix &a,
                               const Matrix<float> &b,
                               const QuantSpec &spec_b,
                               const SpGemmOptions &options = {}) const;

    /**
     * Narrow-format timing from an A-side popcount profile at strip
     * (tile = 8) granularity: per strip, its non-empty 8x1 vectors
     * (k-steps with a non-zero count) and its non-zeros, the counts
     * the narrow encoding of the same matrix stores. This is the one
     * narrow SpMM clock: format selection and execution both read it.
     */
    KernelStats timeNarrowFromProfile(const SparsityProfile &a,
                                      int64_t n,
                                      const SpGemmOptions &options =
                                          {}) const;

    /**
     * Wide-format timing from an A-side profile at warp-tile
     * (tile = 32) granularity: the SpGEMM profile model against a
     * dense B profile, with the B/memory side charged as a raw dense
     * k x n operand instead of a two-level encoding.
     */
    KernelStats timeWideFromProfile(const SparsityProfile &a,
                                    int64_t n,
                                    const SpGemmOptions &options =
                                        {}) const;

    const GpuConfig &config() const { return cfg_; }

  private:
    GpuConfig cfg_;
    MemoryModel memory_model_;
};

/**
 * Scalar narrow-tile SpMM reference, compiled into the test-only
 * `dstc_reference` library: scalar NarrowTileMatrix::encode plus a
 * serial strip-major multiply in the same ascending-(column, row)
 * accumulation order as the word path. The equivalence tests and
 * bench/micro_spmm pin SpmmDevice::multiplyNarrow bitwise to this
 * for every worker count and datatype.
 */
Matrix<float> refSpmmNarrow(const Matrix<float> &a,
                            const Matrix<float> &b, DataType dtype);

} // namespace dstc

#endif // DSTC_GEMM_SPMM_DEVICE_H
