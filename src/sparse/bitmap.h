/**
 * @file
 * The paper's bitmap sparse encoding (Fig. 2b): a two-tuple of a
 * bitmap (1 bit per element) and the packed non-zero values.
 *
 * To support the outer product, matrix A is encoded column-major (its
 * packing "lines" are columns) and matrix B row-major (lines are
 * rows). Non-zero values within a line are packed in increasing
 * position order, which is exactly the condensed layout the OTC
 * consumes (Fig. 4c).
 */
#ifndef DSTC_SPARSE_BITMAP_H
#define DSTC_SPARSE_BITMAP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "common/datatype.h"
#include "tensor/matrix.h"

namespace dstc {

/** Which dimension a bitmap's packing lines run along. */
enum class Major
{
    Row, ///< lines are rows (used for matrix B)
    Col, ///< lines are columns (used for matrix A)
};

/** Bitmap-encoded sparse matrix: bitmap + packed non-zero values. */
class BitmapMatrix
{
  public:
    BitmapMatrix() = default;

    /**
     * Encode a dense matrix. Exact zeros become bitmap zeros; the
     * quantized value lane is filled by @p spec (default: the FP16
     * rounding of the seed pipeline). A non-zero that quantizes to 0
     * keeps its bit, so the bitmap is datatype-invariant.
     */
    static BitmapMatrix encode(const Matrix<float> &dense, Major major,
                               const QuantSpec &spec = {});

    /**
     * Encode a row-major contiguous plane (rows x cols floats) as a
     * Major::Row bitmap — the feature-map plane encoder. Equivalent
     * to encode(Matrix, Major::Row) without staging the Matrix; bits
     * are built 64 elements per output word.
     */
    static BitmapMatrix encodePlane(const float *data, int rows,
                                    int cols,
                                    const QuantSpec &spec = {});

    /**
     * Assemble a bitmap matrix from already-packed parts: per-line
     * bitmap words (wordsPerLine() words per line), values packed in
     * line order, their FP16-rounded mirror, and the per-line prefix
     * offsets (numLines() + 1 entries). This is the word-parallel
     * construction path — callers that already hold bitmap words
     * (e.g. the implicit-im2col tiler) never touch a dense
     * intermediate. The parts must be mutually consistent: offsets
     * deltas equal each line's popcount, values/fp16 sized to the
     * total nnz.
     */
    static BitmapMatrix fromPacked(int rows, int cols, Major major,
                                   std::vector<uint64_t> bits,
                                   std::vector<float> values,
                                   std::vector<float> values_fp16,
                                   std::vector<int> line_offsets);

    /** Reconstruct the dense matrix. */
    Matrix<float> decode() const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    Major major() const { return major_; }

    /** Number of packing lines (cols if column-major, else rows). */
    int numLines() const { return major_ == Major::Col ? cols_ : rows_; }

    /** Elements per packing line. */
    int lineLength() const { return major_ == Major::Col ? rows_ : cols_; }

    /** Total number of non-zero values. */
    int nnz() const { return static_cast<int>(values_.size()); }

    /** Fraction of zero elements in [0, 1]. */
    double
    sparsity() const
    {
        size_t total = static_cast<size_t>(rows_) * cols_;
        return total == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(nnz()) /
                               static_cast<double>(total);
    }

    /** Bit at (r, c): true iff the element is non-zero. */
    bool bit(int r, int c) const;

    /** Number of non-zeros in one packing line. Inline: the multiply
     *  loop reads it twice per k-step. */
    int
    lineNnz(int line) const
    {
        DSTC_ASSERT(line >= 0 && line < numLines());
        return line_offsets_[line + 1] - line_offsets_[line];
    }

    /**
     * POPC over positions [lo, hi) of a packing line — the hardware
     * primitive that drives OHMMA predication (Fig. 15). Inline: the
     * im2col window gather issues two per lowered row.
     */
    int
    linePopcount(int line, int lo, int hi) const
    {
        DSTC_ASSERT(line >= 0 && line < numLines());
        DSTC_ASSERT(lo >= 0 && hi <= lineLength() && lo <= hi);
        size_t base = static_cast<size_t>(line) * words_per_line_ * 64;
        return popcountRange(bits_, base + lo, base + hi);
    }

    /** Packed non-zero values of one line, in position order. */
    std::span<const float>
    lineValues(int line) const
    {
        DSTC_ASSERT(line >= 0 && line < numLines());
        return {values_.data() + line_offsets_[line],
                static_cast<size_t>(lineNnz(line))};
    }

    /**
     * The same values pre-quantized through the encode-time
     * QuantSpec — the lane the modeled datapath multiplies
     * (precision-rounded for fp16/bf16, integer codes for int8/int4).
     * Computed once at encode time so the hot multiply loop never
     * re-rounds (an A tile's lines are re-read once per output tile
     * column). Named for the FP16 default; lineValuesQuant is the
     * datatype-general alias.
     */
    std::span<const float>
    lineValuesFp16(int line) const
    {
        DSTC_ASSERT(line >= 0 && line < numLines());
        return {values_fp16_.data() + line_offsets_[line],
                static_cast<size_t>(lineNnz(line))};
    }

    /** The quantized value lane of one line (alias of
     *  lineValuesFp16, which predates the datatype axis). */
    std::span<const float>
    lineValuesQuant(int line) const
    {
        return lineValuesFp16(line);
    }

    /**
     * Values of line positions [lo, hi) as a condensed (packed)
     * vector. The start offset inside the line's value array is the
     * popcount of [0, lo) — the paper's address-offset trick (S3 in
     * Fig. 11b).
     */
    std::vector<float> lineValuesRange(int line, int lo, int hi) const;

    /** The bitmap words of one line (lineLength() bits, LSB-first). */
    std::span<const uint64_t>
    lineBits(int line) const
    {
        DSTC_ASSERT(line >= 0 && line < numLines());
        return {bits_.data() +
                    static_cast<size_t>(line) * words_per_line_,
                static_cast<size_t>(words_per_line_)};
    }

    /** Bytes occupied by this encoding: bitmap + values packed at
     *  @p dtype width (FP16 by default; int4 nibble-packs). */
    size_t encodedBytes(DataType dtype = DataType::Fp16) const;

    /** Non-zero positions of line [lo, hi) (for gather/scatter). */
    std::vector<int> linePositions(int line, int lo, int hi) const;

    /**
     * Non-allocating variant of linePositions: writes the positions
     * of line range [lo, hi) into caller-owned @p out (which must
     * hold at least linePopcount(line, lo, hi) ints) and returns the
     * count. Iterates 64-bit bitmap words via ctz — the software
     * mirror of the hardware's word-parallel bitmap scan.
     */
    int linePositionsInto(int line, int lo, int hi, int *out) const;

    /**
     * Non-allocating variant of lineValuesRange: writes the condensed
     * values of line positions [lo, hi) into caller-owned @p out and
     * returns the count. The start offset inside the line's value
     * array is the popcount of [0, lo) — the paper's address-offset
     * trick (S3 in Fig. 11b).
     */
    int lineValuesRangeInto(int line, int lo, int hi, float *out) const;

    /** Bitmap words per packing line. */
    int wordsPerLine() const { return words_per_line_; }

    /**
     * Line-occupancy word: bit l is set iff line l holds a non-zero
     * — the per-tile occupancy bitmap whose AND across the A and B
     * tiles compacts empty k-steps away (Sec. III-B3). With more
     * than 64 lines the word cannot name every line and is all ones
     * (every line "may be occupied"); callers then fall back to
     * lineNnz.
     */
    uint64_t occupiedLines() const { return occupied_lines_; }

    /** Value lookup by coordinates; zero if the bit is clear. */
    float valueAt(int r, int c) const;

  private:
    int lineOf(int r, int c) const;
    int posOf(int r, int c) const;
    /** Derive occupied_lines_ from line_offsets_; every factory
     *  calls it last. */
    void setOccupancy();

    int rows_ = 0;
    int cols_ = 0;
    Major major_ = Major::Row;
    int words_per_line_ = 0;
    std::vector<uint64_t> bits_;      ///< words_per_line_ words per line
    std::vector<float> values_;       ///< packed non-zeros, line order
    std::vector<float> values_fp16_;  ///< values_ through QuantSpec::apply
    std::vector<int> line_offsets_;   ///< per-line prefix sums into values_
    uint64_t occupied_lines_ = 0;     ///< see occupiedLines()
};

/**
 * The shared word-parallel encode primitive: pack a row-major
 * contiguous block of floats into bitmap words (@p words_per_line
 * words per row, LSB-first, built 64 elements at a time via
 * packNonzeroBits) and gather the non-zero values in row-major
 * order, appended to @p values while each row is still
 * cache-resident. When @p row_offsets is non-null (@p rows + 1
 * entries, [0] already 0), entry r+1 receives the value count
 * through row r. Every word-parallel encoder (encodePlane, the
 * dense->two-level builders) routes through this one loop, so the
 * bit/value semantics the equivalence tests pin cannot silently
 * fork.
 */
void packRowsAndGatherValues(const float *data, int rows, int cols,
                             int words_per_line, uint64_t *bits,
                             std::vector<float> &values,
                             int *row_offsets);

/**
 * POPC of the AND of two bitmap-word spans — the hardware's
 * occupancy-bitmap intersection (the S2 step of Fig. 11b, and the
 * per-tile AND that drives k-compaction in Sec. III-B3). Spans may
 * differ in length; missing words are treated as zero.
 */
int andPopcount(std::span<const uint64_t> a, std::span<const uint64_t> b);

/**
 * Positions of the common set bits of two bitmap-word spans,
 * iterated word-at-a-time via ctz over the ANDed words. Writes into
 * caller-owned @p out (sized at least andPopcount(a, b)); returns
 * the count.
 */
int andPositionsInto(std::span<const uint64_t> a,
                     std::span<const uint64_t> b, int *out);

} // namespace dstc

#endif // DSTC_SPARSE_BITMAP_H
