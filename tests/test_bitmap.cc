#include "sparse/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/fp16.h"
#include "common/rng.h"

namespace dstc {
namespace {

Matrix<float>
sample3x4()
{
    // 0 5 0 1
    // 2 0 0 0
    // 0 0 3 4
    Matrix<float> m(3, 4);
    m.at(0, 1) = 5;
    m.at(0, 3) = 1;
    m.at(1, 0) = 2;
    m.at(2, 2) = 3;
    m.at(2, 3) = 4;
    return m;
}

TEST(Bitmap, EncodeDecodeRowMajor)
{
    Matrix<float> m = sample3x4();
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Row);
    EXPECT_EQ(bm.rows(), 3);
    EXPECT_EQ(bm.cols(), 4);
    EXPECT_EQ(bm.nnz(), 5);
    EXPECT_EQ(bm.numLines(), 3);
    EXPECT_EQ(bm.lineLength(), 4);
    EXPECT_EQ(bm.decode(), m);
}

TEST(Bitmap, EncodeDecodeColMajor)
{
    Matrix<float> m = sample3x4();
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Col);
    EXPECT_EQ(bm.numLines(), 4);
    EXPECT_EQ(bm.lineLength(), 3);
    EXPECT_EQ(bm.decode(), m);
}

TEST(Bitmap, BitsMatchPattern)
{
    Matrix<float> m = sample3x4();
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Row);
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_EQ(bm.bit(r, c), m.at(r, c) != 0.0f);
}

TEST(Bitmap, LineValuesPackedInOrder)
{
    BitmapMatrix bm = BitmapMatrix::encode(sample3x4(), Major::Row);
    auto row0 = bm.lineValues(0);
    ASSERT_EQ(row0.size(), 2u);
    EXPECT_FLOAT_EQ(row0[0], 5);
    EXPECT_FLOAT_EQ(row0[1], 1);

    BitmapMatrix bmc = BitmapMatrix::encode(sample3x4(), Major::Col);
    auto col3 = bmc.lineValues(3);
    ASSERT_EQ(col3.size(), 2u);
    EXPECT_FLOAT_EQ(col3[0], 1);
    EXPECT_FLOAT_EQ(col3[1], 4);
}

TEST(Bitmap, LinePopcountAndRangeValues)
{
    BitmapMatrix bm = BitmapMatrix::encode(sample3x4(), Major::Row);
    EXPECT_EQ(bm.lineNnz(0), 2);
    EXPECT_EQ(bm.linePopcount(0, 0, 2), 1);
    EXPECT_EQ(bm.linePopcount(0, 2, 4), 1);
    auto vals = bm.lineValuesRange(0, 2, 4);
    ASSERT_EQ(vals.size(), 1u);
    EXPECT_FLOAT_EQ(vals[0], 1);
}

TEST(Bitmap, LinePositions)
{
    BitmapMatrix bm = BitmapMatrix::encode(sample3x4(), Major::Row);
    EXPECT_EQ(bm.linePositions(0, 0, 4), (std::vector<int>{1, 3}));
    EXPECT_EQ(bm.linePositions(0, 2, 4), (std::vector<int>{3}));
    EXPECT_EQ(bm.linePositions(1, 1, 4), (std::vector<int>{}));
}

TEST(Bitmap, ValueAt)
{
    Matrix<float> m = sample3x4();
    for (Major major : {Major::Row, Major::Col}) {
        BitmapMatrix bm = BitmapMatrix::encode(m, major);
        for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 4; ++c)
                EXPECT_FLOAT_EQ(bm.valueAt(r, c), m.at(r, c));
    }
}

TEST(Bitmap, EncodedBytesShrinkWithSparsity)
{
    Rng rng(12);
    Matrix<float> dense = randomSparseMatrix(64, 64, 0.0, rng);
    Matrix<float> sparse = randomSparseMatrix(64, 64, 0.9, rng);
    BitmapMatrix bd = BitmapMatrix::encode(dense, Major::Row);
    BitmapMatrix bs = BitmapMatrix::encode(sparse, Major::Row);
    EXPECT_GT(bd.encodedBytes(), bs.encodedBytes());
    // Bitmap floor: bits never go away.
    EXPECT_GE(bs.encodedBytes(), static_cast<size_t>(64 * 64 / 8));
}

TEST(Bitmap, EmptyAndFullMatrices)
{
    Matrix<float> zero(5, 7);
    BitmapMatrix bz = BitmapMatrix::encode(zero, Major::Col);
    EXPECT_EQ(bz.nnz(), 0);
    EXPECT_EQ(bz.decode(), zero);
    EXPECT_DOUBLE_EQ(bz.sparsity(), 1.0);

    Matrix<float> full(5, 7, 2.0f);
    BitmapMatrix bf = BitmapMatrix::encode(full, Major::Row);
    EXPECT_EQ(bf.nnz(), 35);
    EXPECT_DOUBLE_EQ(bf.sparsity(), 0.0);
    EXPECT_EQ(bf.decode(), full);
}

TEST(Bitmap, WideLinesCrossWordBoundaries)
{
    Rng rng(13);
    // 200-wide lines span four 64-bit words.
    Matrix<float> m = randomSparseMatrix(3, 200, 0.5, rng);
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Row);
    EXPECT_EQ(bm.decode(), m);
    for (int lo = 0; lo < 200; lo += 37) {
        int hi = std::min(200, lo + 50);
        int expected = 0;
        for (int c = lo; c < hi; ++c)
            expected += m.at(1, c) != 0.0f;
        EXPECT_EQ(bm.linePopcount(1, lo, hi), expected);
    }
}

struct BitmapSweepParam
{
    int rows, cols;
    double sparsity;
    Major major;
};

class BitmapSweep : public ::testing::TestWithParam<BitmapSweepParam>
{
};

TEST_P(BitmapSweep, RoundTrip)
{
    const auto &p = GetParam();
    Rng rng(static_cast<uint64_t>(p.rows * 1000 + p.cols));
    Matrix<float> m =
        randomSparseMatrix(p.rows, p.cols, p.sparsity, rng);
    BitmapMatrix bm = BitmapMatrix::encode(m, p.major);
    EXPECT_EQ(bm.decode(), m);
    EXPECT_EQ(bm.nnz(), m.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitmapSweep,
    ::testing::Values(BitmapSweepParam{1, 1, 0.5, Major::Row},
                      BitmapSweepParam{32, 32, 0.0, Major::Col},
                      BitmapSweepParam{32, 32, 1.0, Major::Row},
                      BitmapSweepParam{33, 65, 0.3, Major::Col},
                      BitmapSweepParam{128, 17, 0.9, Major::Row},
                      BitmapSweepParam{7, 300, 0.7, Major::Col},
                      BitmapSweepParam{64, 64, 0.99, Major::Row}));

TEST(Bitmap, ScratchVariantsMatchAllocatingOnes)
{
    Rng rng(42);
    // 300-wide lines span several 64-bit words, with ragged edges.
    Matrix<float> m = randomSparseMatrix(7, 300, 0.6, rng);
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Row);
    std::vector<int> pos(bm.lineLength());
    std::vector<float> vals(bm.lineLength());
    for (int line = 0; line < bm.numLines(); ++line) {
        for (auto [lo, hi] : {std::pair{0, 300}, std::pair{5, 190},
                              std::pair{64, 128}, std::pair{63, 65},
                              std::pair{17, 17}}) {
            const auto expect_pos = bm.linePositions(line, lo, hi);
            const int n =
                bm.linePositionsInto(line, lo, hi, pos.data());
            ASSERT_EQ(n, static_cast<int>(expect_pos.size()));
            EXPECT_TRUE(std::equal(expect_pos.begin(),
                                   expect_pos.end(), pos.begin()));

            const auto expect_vals = bm.lineValuesRange(line, lo, hi);
            const int nv =
                bm.lineValuesRangeInto(line, lo, hi, vals.data());
            ASSERT_EQ(nv, static_cast<int>(expect_vals.size()));
            EXPECT_TRUE(std::equal(expect_vals.begin(),
                                   expect_vals.end(), vals.begin()));
        }
    }
}

TEST(Bitmap, Fp16ValuesArePreRounded)
{
    Rng rng(43);
    Matrix<float> m = randomSparseMatrix(16, 16, 0.5, rng);
    BitmapMatrix bm = BitmapMatrix::encode(m, Major::Col);
    for (int line = 0; line < bm.numLines(); ++line) {
        const auto raw = bm.lineValues(line);
        const auto rounded = bm.lineValuesFp16(line);
        ASSERT_EQ(raw.size(), rounded.size());
        for (size_t i = 0; i < raw.size(); ++i)
            EXPECT_EQ(rounded[i], roundToFp16(raw[i]));
    }
}

TEST(Bitmap, AndPrimitivesMatchNaiveIntersection)
{
    Rng rng(44);
    Matrix<float> ma = randomSparseMatrix(4, 200, 0.7, rng);
    Matrix<float> mb = randomSparseMatrix(4, 200, 0.4, rng);
    BitmapMatrix a = BitmapMatrix::encode(ma, Major::Row);
    BitmapMatrix b = BitmapMatrix::encode(mb, Major::Row);
    std::vector<int> pos(200);
    for (int line = 0; line < 4; ++line) {
        std::vector<int> expect;
        for (int c = 0; c < 200; ++c)
            if (ma.at(line, c) != 0.0f && mb.at(line, c) != 0.0f)
                expect.push_back(c);
        EXPECT_EQ(andPopcount(a.lineBits(line), b.lineBits(line)),
                  static_cast<int>(expect.size()));
        const int n = andPositionsInto(a.lineBits(line),
                                       b.lineBits(line), pos.data());
        ASSERT_EQ(n, static_cast<int>(expect.size()));
        EXPECT_TRUE(
            std::equal(expect.begin(), expect.end(), pos.begin()));
    }
}

TEST(Bitmap, AndPrimitivesToleratiesMismatchedSpans)
{
    // Missing words are treated as zero: intersecting a 2-word line
    // with a 1-word line only sees the shared prefix.
    std::vector<uint64_t> longer = {~uint64_t{0}, ~uint64_t{0}};
    std::vector<uint64_t> shorter = {uint64_t{0b1011}};
    EXPECT_EQ(andPopcount(longer, shorter), 3);
    std::vector<int> pos(4);
    EXPECT_EQ(andPositionsInto(longer, shorter, pos.data()), 3);
    EXPECT_EQ(pos[0], 0);
    EXPECT_EQ(pos[1], 1);
    EXPECT_EQ(pos[2], 3);
}

/** The occupancy word rebuilt from lineNnz: all ones past 64 lines. */
uint64_t
occupancyFromLineNnz(const BitmapMatrix &bm)
{
    if (bm.numLines() > 64)
        return ~uint64_t{0};
    uint64_t mask = 0;
    for (int line = 0; line < bm.numLines(); ++line)
        if (bm.lineNnz(line) != 0)
            mask |= uint64_t{1} << line;
    return mask;
}

TEST(Bitmap, OccupiedLinesMatchLineCountsForEveryFactory)
{
    EXPECT_EQ(BitmapMatrix().occupiedLines(), 0u);
    Rng rng(260);
    // Line counts below, at and past the 64-bit word; the sparse
    // draws leave empty lines scattered through each.
    const int dims[][2] = {{1, 1},   {5, 64},  {64, 5},
                           {33, 65}, {65, 33}, {32, 96}};
    for (const auto &d : dims) {
        for (double sparsity : {0.0, 0.97, 1.0}) {
            const Matrix<float> m =
                randomSparseMatrix(d[0], d[1], sparsity, rng);
            for (Major major : {Major::Row, Major::Col}) {
                const BitmapMatrix bm = BitmapMatrix::encode(m, major);
                EXPECT_EQ(bm.occupiedLines(), occupancyFromLineNnz(bm))
                    << d[0] << "x" << d[1] << " " << sparsity;

                // fromPacked, from the encoding's own parts.
                std::vector<uint64_t> bits;
                std::vector<float> values, fp16;
                std::vector<int> offsets = {0};
                for (int line = 0; line < bm.numLines(); ++line) {
                    const auto w = bm.lineBits(line);
                    bits.insert(bits.end(), w.begin(), w.end());
                    const auto v = bm.lineValues(line);
                    values.insert(values.end(), v.begin(), v.end());
                    const auto q = bm.lineValuesFp16(line);
                    fp16.insert(fp16.end(), q.begin(), q.end());
                    offsets.push_back(offsets.back() + bm.lineNnz(line));
                }
                const BitmapMatrix packed = BitmapMatrix::fromPacked(
                    m.rows(), m.cols(), major, std::move(bits),
                    std::move(values), std::move(fp16),
                    std::move(offsets));
                EXPECT_EQ(packed.occupiedLines(), bm.occupiedLines());
            }
            const BitmapMatrix plane =
                BitmapMatrix::encodePlane(m.data().data(), d[0], d[1]);
            EXPECT_EQ(plane.occupiedLines(),
                      occupancyFromLineNnz(plane));
            EXPECT_EQ(plane.occupiedLines(),
                      BitmapMatrix::encode(m, Major::Row)
                          .occupiedLines());
        }
    }
}

} // namespace
} // namespace dstc
