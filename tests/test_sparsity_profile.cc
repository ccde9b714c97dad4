#include "gemm/sparsity_profile.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sparse/two_level.h"

namespace dstc {
namespace {

TEST(SparsityProfile, FromMatrixACountsColumnsPerTileRow)
{
    Matrix<float> a(64, 3);
    a.at(0, 0) = 1;
    a.at(31, 0) = 1;
    a.at(32, 0) = 1;
    a.at(63, 2) = 1;
    SparsityProfile p = SparsityProfile::fromMatrixA(a, 32);
    EXPECT_EQ(p.groups(), 2);
    EXPECT_EQ(p.k(), 3);
    EXPECT_EQ(p.count(0, 0), 2);
    EXPECT_EQ(p.count(1, 0), 1);
    EXPECT_EQ(p.count(0, 2), 0);
    EXPECT_EQ(p.count(1, 2), 1);
    EXPECT_EQ(p.totalNnz(), 4);
}

TEST(SparsityProfile, FromMatrixBCountsRowsPerTileCol)
{
    Matrix<float> b(3, 64);
    b.at(0, 0) = 1;
    b.at(0, 40) = 1;
    b.at(2, 33) = 1;
    SparsityProfile p = SparsityProfile::fromMatrixB(b, 32);
    EXPECT_EQ(p.groups(), 2);
    EXPECT_EQ(p.count(0, 0), 1);
    EXPECT_EQ(p.count(1, 0), 1);
    EXPECT_EQ(p.count(1, 2), 1);
    EXPECT_EQ(p.count(0, 2), 0);
}

TEST(SparsityProfile, TileNnzAggregatesKChunks)
{
    Matrix<float> a(32, 64);
    for (int kk = 0; kk < 40; ++kk)
        a.at(kk % 32, kk) = 1.0f;
    SparsityProfile p = SparsityProfile::fromMatrixA(a, 32);
    EXPECT_EQ(p.tileNnz(0, 0, 32), 32);
    EXPECT_EQ(p.tileNnz(0, 1, 32), 8);
    EXPECT_EQ(p.tileNnzTable(32), (std::vector<int64_t>{32, 8}));
    EXPECT_EQ(p.tileNnzTable(24), (std::vector<int64_t>{24, 16, 0}));
    EXPECT_EQ(p.totalNnz(), 40);
}

TEST(SparsityProfileDeathTest, CountOutsideTheLinePanics)
{
    // A line holds at most tile() non-zeros; the timing model indexes
    // per-popcount tables with the counts, so setCount refuses any
    // other value instead of narrowing it.
    SparsityProfile p(2, 4, 32);
    p.setCount(1, 3, 32);
    EXPECT_EQ(p.count(1, 3), 32);
    EXPECT_DEATH(p.setCount(0, 0, 33), "line count 33 outside");
    EXPECT_DEATH(p.setCount(0, 0, -1), "line count -1 outside");
    EXPECT_DEATH(p.setCount(1, 2, 1 << 16), "outside \\[0, 32\\]");
}

TEST(SparsityProfile, DenseProfile)
{
    SparsityProfile p = SparsityProfile::denseA(70, 5, 32);
    EXPECT_EQ(p.groups(), 3);
    EXPECT_EQ(p.count(0, 0), 32);
    EXPECT_EQ(p.count(1, 4), 32);
    EXPECT_EQ(p.count(2, 0), 6); // 70 - 64 edge rows
    EXPECT_EQ(p.totalNnz(), 70 * 5);
}

TEST(SparsityProfile, RandomHitsTargetDensity)
{
    Rng rng(101);
    SparsityProfile p =
        SparsityProfile::randomA(1024, 256, 32, 0.3, 1.0, rng);
    const double measured =
        static_cast<double>(p.totalNnz()) / (1024.0 * 256.0);
    EXPECT_NEAR(measured, 0.3, 0.01);
}

TEST(SparsityProfile, ClusteringPreservesDensityButConcentrates)
{
    Rng rng(102);
    SparsityProfile uniform =
        SparsityProfile::randomA(2048, 512, 32, 0.1, 1.0, rng);
    SparsityProfile clustered =
        SparsityProfile::randomA(2048, 512, 32, 0.1, 4.0, rng);
    const double total = 2048.0 * 512.0;
    EXPECT_NEAR(uniform.totalNnz() / total, 0.1, 0.01);
    EXPECT_NEAR(clustered.totalNnz() / total, 0.1, 0.01);
    // Clustered pattern has many more completely empty lines.
    auto empty_lines = [](const SparsityProfile &p) {
        int64_t empties = 0;
        for (int g = 0; g < p.groups(); ++g)
            for (int64_t kk = 0; kk < p.k(); ++kk)
                empties += p.count(g, kk) == 0;
        return empties;
    };
    EXPECT_GT(empty_lines(clustered), empty_lines(uniform) * 2);
}

TEST(SparsityProfile, EncodedBytesMatchTwoLevelEncoding)
{
    Rng rng(103);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.8, rng);
    SparsityProfile p = SparsityProfile::fromMatrixA(a, 32);
    TwoLevelBitmapMatrix tl =
        TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
    const double profile_bytes =
        static_cast<double>(p.encodedBytes(32));
    const double exact_bytes = static_cast<double>(tl.encodedBytes());
    EXPECT_NEAR(profile_bytes, exact_bytes, exact_bytes * 0.05);
}

TEST(SparsityProfile, FromLoweredMatchesDecodedMatrix)
{
    Rng rng(104);
    Tensor4d input = randomSparseTensor(1, 3, 12, 12, 0.5, rng);
    ConvShape shape;
    shape.batch = 1;
    shape.in_c = 3;
    shape.in_h = shape.in_w = 12;
    shape.out_c = 8;
    shape.kernel = 3;
    shape.pad = 1;
    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);
    LoweredFeatureMap lfm = im2colFromBitmap(fmap, shape);
    SparsityProfile from_lowered =
        SparsityProfile::fromLowered(lfm, 32);
    SparsityProfile from_dense =
        SparsityProfile::fromMatrixA(lfm.decode(), 32);
    ASSERT_EQ(from_lowered.groups(), from_dense.groups());
    ASSERT_EQ(from_lowered.k(), from_dense.k());
    for (int g = 0; g < from_lowered.groups(); ++g)
        for (int64_t kk = 0; kk < from_lowered.k(); ++kk)
            EXPECT_EQ(from_lowered.count(g, kk),
                      from_dense.count(g, kk))
                << "g=" << g << " k=" << kk;
}

TEST(SparsityProfileTest, FromEncodedMatchesFromMatrix)
{
    // The profiles read off a two-level encoding (packing-offset
    // counts, no decode) must equal the element-wise extraction from
    // the matrix the encoding came from — including ragged edges.
    Rng rng(93);
    for (auto [m, k, n] : {std::tuple{96, 128, 64},
                           std::tuple{95, 67, 33},
                           std::tuple{32, 32, 32}}) {
        Matrix<float> a = randomSparseMatrix(m, k, 0.7, rng);
        Matrix<float> b = randomSparseMatrix(k, n, 0.85, rng);
        TwoLevelBitmapMatrix a_enc =
            TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
        TwoLevelBitmapMatrix b_enc =
            TwoLevelBitmapMatrix::encode(b, 32, 32, Major::Row);
        SparsityProfile ea = SparsityProfile::fromEncodedA(a_enc);
        SparsityProfile ma = SparsityProfile::fromMatrixA(a, 32);
        SparsityProfile eb = SparsityProfile::fromEncodedB(b_enc);
        SparsityProfile mb = SparsityProfile::fromMatrixB(b, 32);
        ASSERT_EQ(ea.groups(), ma.groups());
        ASSERT_EQ(ea.k(), ma.k());
        ASSERT_EQ(ea.extent(), ma.extent());
        ASSERT_EQ(eb.groups(), mb.groups());
        ASSERT_EQ(eb.k(), mb.k());
        ASSERT_EQ(eb.extent(), mb.extent());
        for (int g = 0; g < ea.groups(); ++g)
            for (int64_t kk = 0; kk < ea.k(); ++kk)
                EXPECT_EQ(ea.count(g, kk), ma.count(g, kk))
                    << "A g=" << g << " k=" << kk;
        for (int g = 0; g < eb.groups(); ++g)
            for (int64_t kk = 0; kk < eb.k(); ++kk)
                EXPECT_EQ(eb.count(g, kk), mb.count(g, kk))
                    << "B g=" << g << " k=" << kk;
    }
}

} // namespace
} // namespace dstc
