/**
 * @file
 * Equivalence gate of the word-parallel operand encoders: for every
 * shape (ragged included), major, tiling and worker count, the word
 * encoders must reproduce the element-wise references bit for bit —
 * bitmap words, packed values, the FP16 mirror, line offsets, warp
 * bits and profile counts alike. The scalar encode stays in the
 * library solely as this ground truth.
 */
#include "sparse/word_encode.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "gemm/sparsity_profile.h"
#include "im2col/bitmap_im2col.h"
#include "model/sparsity_gen.h"

namespace dstc {
namespace {

/** Bit-for-bit comparison of two one-level bitmap encodings. */
void
expectBitmapIdentical(const BitmapMatrix &a, const BitmapMatrix &b,
                      const char *label)
{
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    ASSERT_EQ(a.major(), b.major()) << label;
    ASSERT_EQ(a.nnz(), b.nnz()) << label;
    ASSERT_EQ(a.occupiedLines(), b.occupiedLines()) << label;
    for (int line = 0; line < a.numLines(); ++line) {
        const auto wa = a.lineBits(line);
        const auto wb = b.lineBits(line);
        ASSERT_EQ(wa.size(), wb.size()) << label;
        for (size_t w = 0; w < wa.size(); ++w)
            ASSERT_EQ(wa[w], wb[w])
                << label << " line " << line << " word " << w;
        const auto va = a.lineValues(line);
        const auto vb = b.lineValues(line);
        const auto fa = a.lineValuesFp16(line);
        const auto fb = b.lineValuesFp16(line);
        ASSERT_EQ(va.size(), vb.size()) << label << " line " << line;
        for (size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(va[i], vb[i])
                << label << " line " << line << " value " << i;
            ASSERT_EQ(fa[i], fb[i])
                << label << " line " << line << " fp16 " << i;
        }
    }
}

/** Bit-for-bit comparison of two two-level encodings. */
void
expectTwoLevelIdentical(const TwoLevelBitmapMatrix &a,
                        const TwoLevelBitmapMatrix &b,
                        const char *label)
{
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    ASSERT_EQ(a.numTileRows(), b.numTileRows()) << label;
    ASSERT_EQ(a.numTileCols(), b.numTileCols()) << label;
    ASSERT_EQ(a.nonEmptyTiles(), b.nonEmptyTiles()) << label;
    ASSERT_EQ(a.nnz(), b.nnz()) << label;
    ASSERT_EQ(a.encodedBytes(), b.encodedBytes()) << label;
    for (int tr = 0; tr < a.numTileRows(); ++tr) {
        for (int tc = 0; tc < a.numTileCols(); ++tc) {
            ASSERT_EQ(a.tileNonEmpty(tr, tc), b.tileNonEmpty(tr, tc))
                << label << " tile " << tr << "," << tc;
            expectBitmapIdentical(a.tile(tr, tc), b.tile(tr, tc),
                                  label);
        }
    }
}

TEST(WordEncode, TwoLevelMatchesScalarRaggedShapes)
{
    Rng rng(732);
    // Non-multiple-of-32 extents exercise clipped edge tiles on both
    // axes, extents straddling the 64-bit word both ways exercise the
    // row packing and the block transpose, and tile_k runs below, at
    // and past one 64-bit word. A is Major::Col with 32-row tiles, B
    // Major::Row with 32-column tiles.
    const int dims[][2] = {{64, 64},  {50, 70},  {33, 95},
                           {100, 31}, {70, 70},  {129, 65},
                           {96, 100}, {1, 129},  {127, 1},
                           {65, 33}};
    for (const auto &d : dims) {
        for (double sp : {0.0, 0.5, 0.8, 0.95}) {
            const Matrix<float> m =
                randomSparseMatrix(d[0], d[1], sp, rng);
            for (int tile_k : {16, 32, 64, 96}) {
                const std::string label =
                    std::to_string(d[0]) + "x" + std::to_string(d[1]) +
                    " sparsity " + std::to_string(sp) + " tile_k " +
                    std::to_string(tile_k);
                expectTwoLevelIdentical(
                    wordEncodeTwoLevel(m, kWarpTile, tile_k,
                                       Major::Col),
                    TwoLevelBitmapMatrix::encode(m, kWarpTile, tile_k,
                                                 Major::Col),
                    ("col " + label).c_str());
                expectTwoLevelIdentical(
                    wordEncodeTwoLevel(m, tile_k, kWarpTile,
                                       Major::Row),
                    TwoLevelBitmapMatrix::encode(m, tile_k, kWarpTile,
                                                 Major::Row),
                    ("row " + label).c_str());
            }
        }
    }
}

TEST(WordEncodeDeathTest, OtherWarpTileEdgesAreRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(739);
    const Matrix<float> m = randomSparseMatrix(40, 40, 0.5, rng);
    EXPECT_DEATH(wordEncodeTwoLevel(m, 16, 32, Major::Col),
                 "32-row warp tiles");
    EXPECT_DEATH(wordEncodeTwoLevel(m, 32, 16, Major::Row),
                 "32-column warp tiles");

    ConvShape shape;
    shape.in_c = 2;
    shape.in_h = shape.in_w = 8;
    shape.out_c = 2;
    const LoweredFeatureMap lfm = im2colFromBitmap(
        BitmapFeatureMap::encode(
            randomSparseTensor(1, 2, 8, 8, 0.5, rng)),
        shape);
    EXPECT_DEATH(lfm.toTwoLevel(16, 32), "32-row warp tiles");
}

TEST(WordEncode, TwoLevelIdenticalForAnyWorkerCount)
{
    Rng rng(733);
    Matrix<float> m = randomSparseMatrix(127, 130, 0.9, rng);
    TwoLevelBitmapMatrix ref =
        TwoLevelBitmapMatrix::encode(m, 32, 32, Major::Col);
    for (int workers : {0, 1, 2, 4, 7}) {
        expectTwoLevelIdentical(
            wordEncodeTwoLevel(m, 32, 32, Major::Col, workers), ref,
            ("workers=" + std::to_string(workers)).c_str());
    }
}

TEST(WordEncode, ClusteredAndDegenerateInputs)
{
    Rng rng(734);
    Matrix<float> clustered =
        clusteredSparseMatrix(96, 96, 0.9, 32, 4.0, rng);
    expectTwoLevelIdentical(
        wordEncodeTwoLevel(clustered, 32, 32, Major::Row),
        TwoLevelBitmapMatrix::encode(clustered, 32, 32, Major::Row),
        "clustered");

    Matrix<float> zero(40, 50);
    expectTwoLevelIdentical(
        wordEncodeTwoLevel(zero, 32, 32, Major::Col),
        TwoLevelBitmapMatrix::encode(zero, 32, 32, Major::Col),
        "all-zero");

    Matrix<float> dense = randomSparseMatrix(48, 48, 0.0, rng);
    expectTwoLevelIdentical(
        wordEncodeTwoLevel(dense, 32, 32, Major::Col),
        TwoLevelBitmapMatrix::encode(dense, 32, 32, Major::Col),
        "fully-dense");
}

TEST(WordEncode, ProfilesMatchScalarExtraction)
{
    Rng rng(735);
    for (const auto &d :
         std::initializer_list<std::pair<int, int>>{
             {64, 64}, {50, 70}, {33, 129}}) {
        Matrix<float> m =
            randomSparseMatrix(d.first, d.second, 0.7, rng);
        SparsityProfile wa = SparsityProfile::fromMatrixAWord(m, 32);
        SparsityProfile sa = SparsityProfile::fromMatrixA(m, 32);
        ASSERT_EQ(wa.groups(), sa.groups());
        ASSERT_EQ(wa.k(), sa.k());
        ASSERT_EQ(wa.extent(), sa.extent());
        for (int g = 0; g < sa.groups(); ++g)
            for (int64_t kk = 0; kk < sa.k(); ++kk)
                ASSERT_EQ(wa.count(g, kk), sa.count(g, kk))
                    << "A g=" << g << " k=" << kk;

        SparsityProfile wb = SparsityProfile::fromMatrixBWord(m, 32);
        SparsityProfile sb = SparsityProfile::fromMatrixB(m, 32);
        ASSERT_EQ(wb.groups(), sb.groups());
        ASSERT_EQ(wb.extent(), sb.extent());
        for (int g = 0; g < sb.groups(); ++g)
            for (int64_t kk = 0; kk < sb.k(); ++kk)
                ASSERT_EQ(wb.count(g, kk), sb.count(g, kk))
                    << "B g=" << g << " k=" << kk;
    }
}

TEST(WordEncode, ProfilesRecordTrueExtents)
{
    Rng rng(736);
    Matrix<float> a = randomSparseMatrix(50, 40, 0.5, rng);
    EXPECT_EQ(SparsityProfile::fromMatrixA(a, 32).extent(), 50);
    EXPECT_EQ(SparsityProfile::fromMatrixB(a, 32).extent(), 40);
    SparsityProfile synth =
        SparsityProfile::randomA(100, 64, 32, 0.5, 1.0, rng);
    EXPECT_EQ(synth.extent(), 100);
    EXPECT_EQ(synth.groups(), 4);
    // Legacy construction stays tile-aligned.
    EXPECT_EQ(SparsityProfile(3, 8, 32).extent(), 96);
}

/** Every tile's occupancy word equals the mask of its non-empty
 *  lines (all ones past 64 lines). */
void
expectTileOccupancy(const TwoLevelBitmapMatrix &tl, const char *label)
{
    for (int tr = 0; tr < tl.numTileRows(); ++tr) {
        for (int tc = 0; tc < tl.numTileCols(); ++tc) {
            const BitmapMatrix &t = tl.tile(tr, tc);
            uint64_t mask = t.numLines() > 64 ? ~uint64_t{0} : 0;
            for (int line = 0; line < t.numLines() && line < 64; ++line)
                if (t.lineNnz(line) != 0)
                    mask |= uint64_t{1} << line;
            ASSERT_EQ(t.occupiedLines(), mask)
                << label << " tile " << tr << "," << tc;
        }
    }
}

TEST(WordEncode, TileOccupancyMatchesLineCounts)
{
    Rng rng(738);
    // Ragged 32-wide tiles, and 96-deep K tiles past the 64-bit word.
    const Matrix<float> m = randomSparseMatrix(70, 100, 0.97, rng);
    expectTileOccupancy(wordEncodeTwoLevel(m, 32, 32, Major::Col),
                        "col 32x32");
    expectTileOccupancy(wordEncodeTwoLevel(m, 32, 32, Major::Row),
                        "row 32x32");
    expectTileOccupancy(wordEncodeTwoLevel(m, 32, 96, Major::Col),
                        "col 32x96");
    expectTileOccupancy(wordEncodeTwoLevel(m, 96, 32, Major::Row),
                        "row 96x32");

    // The implicit im2col's retile builds its tiles from words too.
    ConvShape shape;
    shape.batch = 1;
    shape.in_c = 3;
    shape.in_h = shape.in_w = 20;
    shape.out_c = 4;
    shape.kernel = 3;
    shape.stride = 1;
    shape.pad = 1;
    const Tensor4d input = randomSparseTensor(1, 3, 20, 20, 0.8, rng);
    const LoweredFeatureMap lfm =
        im2colFromBitmap(BitmapFeatureMap::encode(input), shape);
    expectTileOccupancy(lfm.toTwoLevel(32, 8), "im2col 32x8");
    expectTileOccupancy(lfm.toTwoLevel(32, 32), "im2col 32x32");
}

TEST(WordEncode, WordNnzMatchesElementCount)
{
    Rng rng(737);
    for (int n : {0, 1, 63, 64, 65, 1000}) {
        std::vector<float> v(static_cast<size_t>(n));
        int64_t expect = 0;
        for (auto &x : v) {
            x = rng.bernoulli(0.5)
                    ? 0.0f
                    : rng.uniformFloat(-1.0f, 1.0f);
            expect += x != 0.0f;
        }
        EXPECT_EQ(wordNnz(v.data(), v.size()), expect) << n;
    }
    Matrix<float> m = randomSparseMatrix(37, 53, 0.8, rng);
    EXPECT_EQ(wordSparsity(m), m.sparsity());
}

} // namespace
} // namespace dstc
