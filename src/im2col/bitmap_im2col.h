/**
 * @file
 * Bitmap-based, outer-product-friendly sparse im2col (Sec. IV-B,
 * Fig. 11): the paper's key enabler for dual-side SpCONV.
 *
 * The feature map stays bitmap-encoded (bitmap + packed values +
 * per-row offsets). Each column of the lowered matrix is produced by
 * register-style word operations on the row bitmaps — mask, shift,
 * popcount for the value address offset — and emerges already in the
 * condensed column-major form the outer-product SpGEMM consumes. No
 * per-element data-dependent lookups are needed, which is why it
 * beats CSR im2col by an order of magnitude at moderate sparsity
 * (Table III).
 *
 * The whole pipeline is word-parallel end to end: plane encoding
 * packs 64 elements per bitmap word, value gathers slice the planes'
 * condensed arrays (with the FP16-rounded mirror copied alongside,
 * so the multiply path never re-rounds), independent lowered columns
 * are partitioned over the shared worker pool, and toTwoLevel()
 * re-tiles the lowered columns into the SpGEMM operand format by
 * word extraction — the dense lowered matrix is never materialized.
 */
#ifndef DSTC_IM2COL_BITMAP_IM2COL_H
#define DSTC_IM2COL_BITMAP_IM2COL_H

#include <cstdint>
#include <vector>

#include "im2col/conv_shape.h"
#include "sparse/bitmap.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "tensor/tensor4d.h"

namespace dstc {

/** Bitmap encoding of an NCHW tensor: one row-major bitmap per
 *  (n, c) plane — the three-field format of Fig. 11b. */
class BitmapFeatureMap
{
  public:
    static BitmapFeatureMap encode(const Tensor4d &input);

    const BitmapMatrix &
    plane(int n, int c) const
    {
        return planes_[static_cast<size_t>(n) * channels_ + c];
    }

    int channels() const { return channels_; }

    /** Encoded footprint (bitmap + FP16 values + row offsets). */
    size_t encodedBytes() const;

  private:
    int channels_ = 0;
    std::vector<BitmapMatrix> planes_;
};

/** One column of the lowered feature map in condensed form. */
struct LoweredColumn
{
    std::vector<uint64_t> bits; ///< column bitmap, M bits LSB-first
    std::vector<float> values;  ///< condensed non-zero values
    /** The values pre-rounded through FP16, copied from the plane
     *  encodings — the operands the Tensor Core datapath multiplies
     *  (encode-time rounding; the hot loop never re-rounds). */
    std::vector<float> values_fp16;
};

/** The lowered feature map as the outer-product SpGEMM's A operand. */
class LoweredFeatureMap
{
  public:
    int rows = 0; ///< M = batch * outH * outW
    int cols = 0; ///< K = in_c * kernel * kernel
    std::vector<LoweredColumn> columns;

    /** Word-level register operations performed (cost metric). */
    int64_t register_ops = 0;

    /** Reconstruct the dense lowered matrix (validation). */
    Matrix<float> decode() const;

    /** Non-zeros of one column, from its bitmap. */
    int columnNnz(int j) const;

    int64_t totalNnz() const;

    /**
     * Re-tile the lowered columns into the two-level bitmap operand
     * the device-level SpGEMM consumes (kWarpTile x tile_k warp
     * tiles, column-major lines): each 64-bit column word splits into
     * two 32-row tile slices, and the condensed values are sliced
     * per slice — bit-for-bit identical to
     * TwoLevelBitmapMatrix::encode(decode(), ...) without ever
     * materializing the dense lowered matrix. Requires the map to
     * have been lowered with gather_values.
     *
     * @param tile_m must be kWarpTile (asserted).
     * @param num_workers partitions the independent tile-column
     *        groups like SpGemmOptions::num_workers (0 = shared
     *        pool, 1 = serial); the result is identical for any
     *        setting.
     */
    TwoLevelBitmapMatrix toTwoLevel(int tile_m, int tile_k,
                                    int num_workers = 1) const;
};

/**
 * The implicit sparse im2col: build the lowered feature map from
 * bitmap planes using only word shifts, masks and popcounts.
 *
 * @param gather_values when false, only the lowered bitmaps are
 *        built (sufficient for the timing sweeps; decode() is then
 *        unavailable).
 * @param num_workers partitions the independent lowered columns over
 *        the shared worker pool (same contract as
 *        SpGemmOptions::num_workers: 0 = all hardware threads, 1 =
 *        serial in the caller). Columns are written to disjoint
 *        slots and the op counters reduced in column order, so the
 *        result is identical for any worker count.
 * @param word_strided stride>1 windows use the word-parallel
 *        deinterleave (per-word stride masks + PEXT compaction,
 *        values sliced by a running-rank popcount). false retains
 *        the per-bit probe gather — the scalar reference the
 *        equivalence tests and ConvExecutor::runScalar pin against.
 *        Column bitmaps and values are bit-for-bit identical either
 *        way (only register_ops, the op-count metric, differs).
 */
LoweredFeatureMap im2colFromBitmap(const BitmapFeatureMap &fmap,
                                   const ConvShape &shape,
                                   bool gather_values = true,
                                   int num_workers = 1,
                                   bool word_strided = true);

} // namespace dstc

#endif // DSTC_IM2COL_BITMAP_IM2COL_H
