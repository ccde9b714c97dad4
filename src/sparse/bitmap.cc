#include "sparse/bitmap.h"

#include <algorithm>
#include <bit>

#include "common/bitutil.h"
#include "common/fp16.h"

namespace dstc {

int
BitmapMatrix::lineOf(int r, int c) const
{
    return major_ == Major::Col ? c : r;
}

int
BitmapMatrix::posOf(int r, int c) const
{
    return major_ == Major::Col ? r : c;
}

BitmapMatrix
BitmapMatrix::encode(const Matrix<float> &dense, Major major,
                     const QuantSpec &spec)
{
    BitmapMatrix bm;
    bm.rows_ = dense.rows();
    bm.cols_ = dense.cols();
    bm.major_ = major;
    const int lines = bm.numLines();
    const int line_len = bm.lineLength();
    bm.words_per_line_ = ceilDiv(line_len, 64);
    bm.bits_.assign(static_cast<size_t>(lines) * bm.words_per_line_, 0);
    bm.line_offsets_.assign(lines + 1, 0);

    for (int line = 0; line < lines; ++line) {
        for (int pos = 0; pos < line_len; ++pos) {
            int r = major == Major::Col ? pos : line;
            int c = major == Major::Col ? line : pos;
            float v = dense.at(r, c);
            if (v != 0.0f) {
                size_t bitpos =
                    static_cast<size_t>(line) * bm.words_per_line_ * 64 +
                    pos;
                setBit(bm.bits_, bitpos);
                bm.values_.push_back(v);
                bm.values_fp16_.push_back(spec.apply(v));
            }
        }
        bm.line_offsets_[line + 1] =
            static_cast<int>(bm.values_.size());
    }
    bm.setOccupancy();
    return bm;
}

BitmapMatrix
BitmapMatrix::encodePlane(const float *data, int rows, int cols,
                          const QuantSpec &spec)
{
    BitmapMatrix bm;
    bm.rows_ = rows;
    bm.cols_ = cols;
    bm.major_ = Major::Row;
    bm.words_per_line_ = ceilDiv(cols, 64);
    bm.bits_.assign(static_cast<size_t>(rows) * bm.words_per_line_, 0);
    bm.line_offsets_.assign(rows + 1, 0);
    // Amortize the value growth (a quarter-dense guess; feature maps
    // past ReLU are sparser than that).
    bm.values_.reserve(static_cast<size_t>(rows) * cols / 4);

    packRowsAndGatherValues(data, rows, cols, bm.words_per_line_,
                            bm.bits_.data(), bm.values_,
                            bm.line_offsets_.data());
    // The quantized mirror rounds in its own contiguous pass, where
    // the independent iterations pipeline instead of serializing
    // behind each ctz step.
    bm.values_fp16_.resize(bm.values_.size());
    for (size_t i = 0; i < bm.values_.size(); ++i)
        bm.values_fp16_[i] = spec.apply(bm.values_[i]);
    bm.setOccupancy();
    return bm;
}

void
packRowsAndGatherValues(const float *data, int rows, int cols,
                        int words_per_line, uint64_t *bits,
                        std::vector<float> &values, int *row_offsets)
{
    // Word build (packNonzeroBits byte-packs the compares so they
    // vectorize) fused with the ctz value walk per row: the row is
    // still cache-resident when its set bits are gathered, so the
    // block streams through exactly once.
    for (int r = 0; r < rows; ++r) {
        const float *row = data + static_cast<size_t>(r) * cols;
        uint64_t *words =
            bits + static_cast<size_t>(r) * words_per_line;
        for (int c0 = 0; c0 < cols; c0 += 64) {
            uint64_t word =
                packNonzeroBits(row + c0, std::min(64, cols - c0));
            words[c0 >> 6] = word;
            while (word) {
                const int b = std::countr_zero(word);
                word &= word - 1;
                values.push_back(row[c0 + b]);
            }
        }
        if (row_offsets)
            row_offsets[r + 1] = static_cast<int>(values.size());
    }
}

BitmapMatrix
BitmapMatrix::fromPacked(int rows, int cols, Major major,
                         std::vector<uint64_t> bits,
                         std::vector<float> values,
                         std::vector<float> values_fp16,
                         std::vector<int> line_offsets)
{
    BitmapMatrix bm;
    bm.rows_ = rows;
    bm.cols_ = cols;
    bm.major_ = major;
    const int lines = bm.numLines();
    bm.words_per_line_ = ceilDiv(bm.lineLength(), 64);
    DSTC_ASSERT(bits.size() ==
                static_cast<size_t>(lines) * bm.words_per_line_);
    DSTC_ASSERT(line_offsets.size() ==
                    static_cast<size_t>(lines) + 1 &&
                line_offsets.front() == 0);
    DSTC_ASSERT(values.size() ==
                    static_cast<size_t>(line_offsets.back()) &&
                values_fp16.size() == values.size());
    bm.bits_ = std::move(bits);
    bm.values_ = std::move(values);
    bm.values_fp16_ = std::move(values_fp16);
    bm.line_offsets_ = std::move(line_offsets);
    bm.setOccupancy();
    return bm;
}

void
BitmapMatrix::setOccupancy()
{
    const int lines = numLines();
    if (lines > 64) {
        occupied_lines_ = ~uint64_t{0};
        return;
    }
    occupied_lines_ = 0;
    for (int line = 0; line < lines; ++line)
        if (line_offsets_[line + 1] != line_offsets_[line])
            occupied_lines_ |= uint64_t{1} << line;
}

Matrix<float>
BitmapMatrix::decode() const
{
    Matrix<float> dense(rows_, cols_);
    const int lines = numLines();
    const int line_len = lineLength();
    for (int line = 0; line < lines; ++line) {
        int vi = line_offsets_[line];
        for (int pos = 0; pos < line_len; ++pos) {
            size_t bitpos =
                static_cast<size_t>(line) * words_per_line_ * 64 + pos;
            if (getBit(bits_, bitpos)) {
                int r = major_ == Major::Col ? pos : line;
                int c = major_ == Major::Col ? line : pos;
                dense.at(r, c) = values_[vi++];
            }
        }
    }
    return dense;
}

bool
BitmapMatrix::bit(int r, int c) const
{
    DSTC_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    size_t bitpos =
        static_cast<size_t>(lineOf(r, c)) * words_per_line_ * 64 +
        posOf(r, c);
    return getBit(bits_, bitpos);
}

std::vector<float>
BitmapMatrix::lineValuesRange(int line, int lo, int hi) const
{
    // Address offset = POPC of the prefix [0, lo); length = POPC of
    // [lo, hi). This mirrors S3/S4 of the sparse im2col flow.
    int offset = linePopcount(line, 0, lo);
    int count = linePopcount(line, lo, hi);
    auto all = lineValues(line);
    return {all.begin() + offset, all.begin() + offset + count};
}

size_t
BitmapMatrix::encodedBytes(DataType dtype) const
{
    // Bitmap bits (1 per element) + values at the datatype's lane
    // width + per-line offsets (one 32-bit word per line, as the
    // row-offset field in Fig. 11b).
    size_t bitmap_bytes = ceilDiv(
        static_cast<size_t>(rows_) * cols_, size_t{8});
    return bitmap_bytes + dataTypePackedBytes(dtype, values_.size()) +
           static_cast<size_t>(numLines()) * 4;
}

std::vector<int>
BitmapMatrix::linePositions(int line, int lo, int hi) const
{
    DSTC_ASSERT(line >= 0 && line < numLines());
    DSTC_ASSERT(lo >= 0 && hi <= lineLength() && lo <= hi);
    std::vector<int> out;
    size_t base = static_cast<size_t>(line) * words_per_line_ * 64;
    forEachSetBit(bits_, base + lo, base + hi, [&](size_t bitpos) {
        out.push_back(static_cast<int>(bitpos - base));
    });
    return out;
}

int
BitmapMatrix::linePositionsInto(int line, int lo, int hi, int *out) const
{
    DSTC_ASSERT(line >= 0 && line < numLines());
    DSTC_ASSERT(lo >= 0 && hi <= lineLength() && lo <= hi);
    if (hi <= lo)
        return 0;
    const uint64_t *words =
        bits_.data() + static_cast<size_t>(line) * words_per_line_;
    const int w_lo = lo >> 6;
    const int w_hi = (hi - 1) >> 6;
    int count = 0;
    for (int w = w_lo; w <= w_hi; ++w) {
        uint64_t word = words[w];
        if (w == w_lo)
            word &= ~lowMask64(lo & 63);
        const int hi_in_word = hi - (w << 6);
        if (hi_in_word < 64)
            word &= lowMask64(hi_in_word);
        const int base = w << 6;
        while (word) {
            out[count++] = base + std::countr_zero(word);
            word &= word - 1;
        }
    }
    return count;
}

int
BitmapMatrix::lineValuesRangeInto(int line, int lo, int hi,
                                  float *out) const
{
    const int offset = linePopcount(line, 0, lo);
    const int count = linePopcount(line, lo, hi);
    const float *src = values_.data() + line_offsets_[line] + offset;
    std::copy(src, src + count, out);
    return count;
}

int
andPopcount(std::span<const uint64_t> a, std::span<const uint64_t> b)
{
    const size_t words = std::min(a.size(), b.size());
    int count = 0;
    for (size_t w = 0; w < words; ++w)
        count += popcount64(a[w] & b[w]);
    return count;
}

int
andPositionsInto(std::span<const uint64_t> a,
                 std::span<const uint64_t> b, int *out)
{
    const size_t words = std::min(a.size(), b.size());
    int count = 0;
    for (size_t w = 0; w < words; ++w) {
        uint64_t word = a[w] & b[w];
        const int base = static_cast<int>(w) << 6;
        while (word) {
            out[count++] = base + std::countr_zero(word);
            word &= word - 1;
        }
    }
    return count;
}

float
BitmapMatrix::valueAt(int r, int c) const
{
    if (!bit(r, c))
        return 0.0f;
    int line = lineOf(r, c);
    int pos = posOf(r, c);
    int offset = linePopcount(line, 0, pos);
    return lineValues(line)[offset];
}

} // namespace dstc
