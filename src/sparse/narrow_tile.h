/**
 * @file
 * Narrow-tile (8x1-granularity) two-level encoding for the
 * ultra-sparse regime. Rows are grouped into 8-row strips; within a
 * strip every column is an 8x1 vector. Level 1 is a per-strip
 * vector-bitmap (one bit per column, packed into 64-bit words): a
 * '0' bit skips the whole 8x1 vector without decode, by the same
 * popcount word scan the wide format uses for warp tiles. Level 2
 * stores, per non-empty vector, an 8-bit row mask plus the packed
 * values (ascending row).
 *
 * At 99%+ sparsity (GNN adjacency, SuiteSparse-style matrices) the
 * 32x32 warp tiles of the wide format are almost all non-empty yet
 * carry only a handful of values each, so their 128-byte element
 * bitmaps dominate the encoded footprint and their fixed per-tile
 * overheads dominate the schedule. The 8x1 vector granularity
 * (FlashSparse) keeps both proportional to the actual non-zeros.
 */
#ifndef DSTC_SPARSE_NARROW_TILE_H
#define DSTC_SPARSE_NARROW_TILE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "common/datatype.h"
#include "common/logging.h"
#include "tensor/matrix.h"

namespace dstc {

/** Narrow-tile (8-row strip, 8x1 vector) sparse matrix. */
class NarrowTileMatrix
{
  public:
    /** Rows per strip — the narrow vector height. */
    static constexpr int kStripRows = 8;

    NarrowTileMatrix() = default;

    /**
     * Scalar reference encode: per strip, ascending column; the row
     * mask's bit j covers row strip*8 + j; values pack ascending
     * row. The word-parallel builder (wordEncodeNarrowTile) is
     * bitwise-pinned to this. @p spec fills the quantized value lane
     * (matrix-global scale, computed by the caller).
     */
    static NarrowTileMatrix encode(const Matrix<float> &dense,
                                   const QuantSpec &spec = {});

    /**
     * Assemble from already-built parts — the word-parallel
     * construction path. The parts must be mutually consistent:
     * @p strip_offsets (numStrips + 1 entries) are vector-count
     * prefixes, @p value_offsets (numVectors + 1 entries) are
     * absolute nnz prefixes, masks/values sized to the totals.
     */
    static NarrowTileMatrix
    fromParts(int rows, int cols, const QuantSpec &spec,
              std::vector<uint64_t> vector_bits,
              std::vector<int64_t> strip_offsets,
              std::vector<uint8_t> masks,
              std::vector<int64_t> value_offsets,
              std::vector<float> values,
              std::vector<float> values_quant);

    /** Reconstruct the dense matrix. */
    Matrix<float> decode() const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int numStrips() const { return n_strips_; }

    /** Level-1 words per strip: ceil(cols / 64). */
    int wordsPerStrip() const { return words_per_strip_; }

    /** Level-1 vector-bitmap word @p w of strip @p s: bit c set iff
     *  the 8x1 vector at column s_word_base + c is non-empty. */
    uint64_t
    stripWord(int s, int w) const
    {
        return vector_bits_[static_cast<size_t>(s) * words_per_strip_ +
                            w];
    }

    /** Index of strip @p s's first vector in the vector arrays. */
    int64_t stripOffset(int s) const { return strip_offsets_[s]; }

    /** Non-empty 8x1 vectors in strip @p s. */
    int64_t
    stripVectors(int s) const
    {
        return strip_offsets_[static_cast<size_t>(s) + 1] -
               strip_offsets_[s];
    }

    /** Non-zeros in strip @p s. */
    int64_t
    stripNnz(int s) const
    {
        return value_offsets_[static_cast<size_t>(
                   strip_offsets_[static_cast<size_t>(s) + 1])] -
               value_offsets_[static_cast<size_t>(strip_offsets_[s])];
    }

    /** Total non-empty 8x1 vectors. */
    int64_t
    numVectors() const
    {
        return static_cast<int64_t>(masks_.size());
    }

    /** Total non-zeros. */
    int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

    /** Row mask of vector @p v: bit j set iff row (strip*8 + j) is
     *  non-zero at the vector's column. */
    uint8_t vectorMask(int64_t v) const { return masks_[v]; }

    /** Packed values of vector @p v, ascending row. */
    std::span<const float>
    vectorValues(int64_t v) const
    {
        return {values_.data() + value_offsets_[v],
                static_cast<size_t>(value_offsets_[v + 1] -
                                    value_offsets_[v])};
    }

    /** The same values through the encode-time QuantSpec. */
    std::span<const float>
    vectorValuesQuant(int64_t v) const
    {
        return {values_quant_.data() + value_offsets_[v],
                static_cast<size_t>(value_offsets_[v + 1] -
                                    value_offsets_[v])};
    }

    /** The quantization the value lane was encoded with. */
    const QuantSpec &spec() const { return spec_; }

    /**
     * Bytes occupied: level-1 vector-bitmap words + one mask byte
     * per non-empty vector + values at @p dtype lane width + the
     * per-strip vector offsets. Per-vector value offsets are NOT
     * counted — the datapath derives them from mask-popcount
     * prefixes, the same address-offset trick the wide format uses.
     */
    size_t encodedBytes(DataType dtype = DataType::Fp16) const;

    /**
     * The encodedBytes formula from aggregate counts, shared with
     * the profile-side estimate so planned and executed footprints
     * cannot diverge.
     */
    static size_t narrowEncodedBytes(int64_t rows, int64_t cols,
                                     int64_t vectors, int64_t nnz,
                                     DataType dtype = DataType::Fp16);

  private:
    int rows_ = 0, cols_ = 0;
    int n_strips_ = 0;
    int words_per_strip_ = 0;
    QuantSpec spec_;
    std::vector<uint64_t> vector_bits_; ///< words_per_strip_ per strip
    std::vector<int64_t> strip_offsets_; ///< vector-count prefixes
    std::vector<uint8_t> masks_;         ///< row mask per vector
    std::vector<int64_t> value_offsets_; ///< nnz prefixes per vector
    std::vector<float> values_;          ///< packed, ascending row
    std::vector<float> values_quant_;    ///< values_ through spec_
};

} // namespace dstc

#endif // DSTC_SPARSE_NARROW_TILE_H
