/**
 * @file
 * Per-warp-tile popcount profiles: the minimal information the
 * timing model needs about an operand — for every (tile line group,
 * k) pair, how many non-zeros the 32-element bitmap line holds.
 *
 * Profiles can be extracted from real matrices / lowered feature
 * maps, or synthesized directly (uniform or clustered patterns)
 * without materializing the operand, which keeps the 4096^3 sweeps
 * of Fig. 21 cheap.
 */
#ifndef DSTC_GEMM_SPARSITY_PROFILE_H
#define DSTC_GEMM_SPARSITY_PROFILE_H

#include <cstdint>
#include <vector>

#include "common/datatype.h"
#include "common/logging.h"
#include "common/rng.h"
#include "im2col/bitmap_im2col.h"
#include "tensor/matrix.h"

namespace dstc {

class TwoLevelBitmapMatrix;

/** Popcount profile of one GEMM operand at warp-tile granularity. */
class SparsityProfile
{
  public:
    /**
     * @param groups    number of tile line groups (ceil(M/tile) for
     *                  the A side, ceil(N/tile) for B)
     * @param k         shared K dimension (elements)
     * @param tile      elements per line (warp-tile edge, 32)
     * @param extent    true extent of the grouped dimension (rows
     *                  for an A-side profile, cols for B). 0 means
     *                  "tile-aligned": groups * tile.
     */
    SparsityProfile(int groups, int64_t k, int tile,
                    int64_t extent = 0);

    /** Popcount of line (group g, k-step kk). */
    int
    count(int g, int64_t kk) const
    {
        return counts_[static_cast<size_t>(g) * k_ + kk];
    }

    /** Set the popcount of line (group g, k-step kk); a line holds
     *  at most tile() non-zeros. */
    void
    setCount(int g, int64_t kk, int value)
    {
        DSTC_ASSERT(value >= 0 && value <= tile_, "line count ", value,
                    " outside [0, ", tile_, "]");
        counts_[static_cast<size_t>(g) * k_ + kk] =
            static_cast<uint16_t>(value);
    }

    /** The k() popcounts of group @p g, in k order. */
    const uint16_t *
    groupCounts(int g) const
    {
        return counts_.data() + static_cast<size_t>(g) * k_;
    }

    int groups() const { return groups_; }
    int64_t k() const { return k_; }
    int tile() const { return tile_; }

    /**
     * True extent of the grouped dimension (M for an A-side profile,
     * N for B) as recorded at construction — not the tile-padded
     * groups() * tile(). Lets KernelRequest::gemm(profile, profile)
     * carry the real GEMM shape to the dense/cusparse estimates
     * instead of a ceil/32*32 inflation.
     */
    int64_t extent() const { return extent_; }

    /** Non-zeros in the (g, tk) two-level tile (tile_k k-steps). */
    int64_t tileNnz(int g, int tk, int tile_k) const;

    /**
     * tileNnz of every two-level tile in one pass over the counts:
     * groups() x ceil(k() / tile_k), row-major by group.
     */
    std::vector<int64_t> tileNnzTable(int tile_k) const;

    /** Total non-zeros. */
    int64_t totalNnz() const;

    /** Lines actually present in group @p g: tile() except for the
     *  clipped last group of a ragged extent. */
    int
    groupSpan(int g) const
    {
        const int64_t lo = static_cast<int64_t>(g) * tile_;
        return static_cast<int>(
            extent_ - lo < tile_ ? extent_ - lo : tile_);
    }

    /** Non-zeros of one tile line group (all k). */
    int64_t groupNnz(int g) const;

    /**
     * Exact non-zero fraction of group @p g over its true span — the
     * per-tile-row density Method::Hybrid partitions on. Pure
     * popcount arithmetic: no operand decode, no extra pass.
     */
    double groupDensity(int g) const;

    /**
     * Slice: the profile restricted to @p groups (ascending group
     * indices). Because only the last group of a profile may be
     * clipped, a clipped group is only selectable in the last
     * position; the slice records the true extent of the selected
     * spans. This is how Method::Hybrid builds per-class operand
     * views without touching values.
     */
    SparsityProfile selectGroups(const std::vector<int> &groups) const;

    /**
     * Two-level encoded footprint in bytes: warp bitmap + element
     * bitmaps and values (at @p dtype lane width, FP16 by default)
     * of non-empty tiles.
     */
    size_t encodedBytes(int tile_k,
                        DataType dtype = DataType::Fp16) const;

    /** encodedBytes over a tileNnzTable(@p tile_k) already built. */
    size_t encodedBytes(const std::vector<int64_t> &tile_nnz, int tile_k,
                        DataType dtype) const;

    // -- constructors from real operands ------------------------------

    /** Profile of the A operand (lines are 32-row column slices).
     *  Element-wise; retained as the word path's test reference. */
    static SparsityProfile fromMatrixA(const Matrix<float> &a, int tile);

    /** Profile of the B operand (lines are 32-col row slices).
     *  Element-wise; retained as the word path's test reference. */
    static SparsityProfile fromMatrixB(const Matrix<float> &b, int tile);

    /**
     * Word-parallel fromMatrixA: bitmap words built 64 elements at a
     * time (column words via 64x64 block transpose), counts read off
     * by POPC. Identical output; this is what the plan paths use.
     */
    static SparsityProfile fromMatrixAWord(const Matrix<float> &a,
                                           int tile);

    /** Word-parallel fromMatrixB (row words + POPC). Identical
     *  output to fromMatrixB. */
    static SparsityProfile fromMatrixBWord(const Matrix<float> &b,
                                           int tile);

    /** Profile of a lowered feature map as the A operand. */
    static SparsityProfile fromLowered(const LoweredFeatureMap &lfm,
                                       int tile);

    /**
     * Profile read off an already-encoded two-level A operand: the
     * per-line counts come straight from the tiles' packing offsets
     * (O(1) per line, no value pass and no decode). Identical to
     * fromMatrixA of the matrix the encoding came from. This is how
     * plans estimate pre-encoded requests without running the
     * kernel.
     */
    static SparsityProfile fromEncodedA(const TwoLevelBitmapMatrix &a);

    /** Two-level B-side counterpart (per tile-column groups). */
    static SparsityProfile fromEncodedB(const TwoLevelBitmapMatrix &b);

    // -- synthetic generators -----------------------------------------

    /** Fully dense profile of an (rows x k) A-side operand. */
    static SparsityProfile denseA(int64_t rows, int64_t k, int tile);

    /**
     * Random A-side profile at a target density. @p cluster >= 1
     * concentrates the non-zeros: inside an active region the local
     * density is cluster * density and a matching fraction of
     * regions is entirely empty (the non-uniform distribution of
     * Fig. 6). cluster = 1 is the uniform Bernoulli pattern.
     */
    static SparsityProfile randomA(int64_t rows, int64_t k, int tile,
                                   double density, double cluster,
                                   Rng &rng);

  private:
    int groups_;
    int64_t k_;
    int tile_;
    int64_t extent_;
    std::vector<uint16_t> counts_;
};

} // namespace dstc

#endif // DSTC_GEMM_SPARSITY_PROFILE_H
