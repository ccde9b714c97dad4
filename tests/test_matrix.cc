#include "tensor/matrix.h"

#include <gtest/gtest.h>

#include <limits>

namespace dstc {
namespace {

TEST(Matrix, ConstructAndIndex)
{
    Matrix<float> m(3, 4, 1.5f);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.size(), 12u);
    EXPECT_FLOAT_EQ(m.at(2, 3), 1.5f);
    m.at(1, 2) = -2.0f;
    EXPECT_FLOAT_EQ(m(1, 2), -2.0f);
}

TEST(Matrix, DefaultIsEmpty)
{
    Matrix<float> m;
    EXPECT_EQ(m.rows(), 0);
    EXPECT_EQ(m.cols(), 0);
    EXPECT_EQ(m.size(), 0u);
}

TEST(Matrix, NnzAndSparsity)
{
    Matrix<float> m(2, 5);
    EXPECT_EQ(m.nnz(), 0);
    m.at(0, 0) = 1.0f;
    m.at(1, 4) = -1.0f;
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_DOUBLE_EQ(m.sparsity(), 0.8);
}

TEST(Matrix, Transpose)
{
    Matrix<float> m(2, 3);
    int v = 0;
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 3; ++c)
            m.at(r, c) = static_cast<float>(v++);
    Matrix<float> t = m.transpose();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 2);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(t.at(c, r), m.at(r, c));
    // Double transpose is identity.
    EXPECT_EQ(t.transpose(), m);
}

TEST(Matrix, Fill)
{
    Matrix<float> m(4, 4, 3.0f);
    m.fill(0.0f);
    EXPECT_EQ(m.nnz(), 0);
}

TEST(Matrix, RandomSparseHitsTarget)
{
    Rng rng(17);
    Matrix<float> m = randomSparseMatrix(200, 200, 0.7, rng);
    EXPECT_NEAR(m.sparsity(), 0.7, 0.02);
    // No element the generator placed can be exactly zero-valued yet
    // counted as a non-zero.
    for (float v : m.data())
        EXPECT_TRUE(v == 0.0f || std::fabs(v) > 0.0f);
}

TEST(Matrix, RandomSparseExtremes)
{
    Rng rng(18);
    EXPECT_EQ(randomSparseMatrix(50, 50, 1.0, rng).nnz(), 0);
    EXPECT_EQ(randomSparseMatrix(50, 50, 0.0, rng).nnz(), 2500);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix<float> a(2, 2), b(2, 2);
    a.at(0, 0) = 1.0f;
    b.at(0, 0) = 1.5f;
    b.at(1, 1) = -0.25f;
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 0.5);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, a), 0.0);
}

TEST(Matrix, MaxAbsDiffSeesNonFiniteCells)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    auto diff = [](float x, float y) {
        Matrix<float> a(1, 2, 1.0f), b(1, 2, 1.25f);
        a.at(0, 1) = x;
        b.at(0, 1) = y;
        return maxAbsDiff(a, b);
    };
    // Exactly one side NaN: no tolerance passes.
    EXPECT_EQ(diff(nan, 1.0f), inf);
    EXPECT_EQ(diff(1.0f, nan), inf);
    EXPECT_EQ(diff(nan, inf), inf);
    EXPECT_EQ(diff(-inf, nan), inf);
    // Both NaN, or the same infinity: the cell agrees.
    EXPECT_DOUBLE_EQ(diff(nan, -nan), 0.25);
    EXPECT_DOUBLE_EQ(diff(inf, inf), 0.25);
    EXPECT_DOUBLE_EQ(diff(-inf, -inf), 0.25);
    EXPECT_DOUBLE_EQ(diff(0.0f, -0.0f), 0.25);
    // Different infinities, or an infinity against a finite value.
    EXPECT_EQ(diff(inf, -inf), inf);
    EXPECT_EQ(diff(inf, 3.0f), inf);
    // The NaN cell decides even after a larger finite difference.
    Matrix<float> a(1, 2), b(1, 2);
    a.at(0, 0) = 100.0f;
    b.at(0, 1) = nan;
    EXPECT_EQ(maxAbsDiff(a, b), inf);
}

class MatrixSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MatrixSizeSweep, TransposeRoundTrip)
{
    Rng rng(GetParam());
    Matrix<float> m =
        randomSparseMatrix(GetParam(), GetParam() + 3, 0.5, rng);
    EXPECT_EQ(m.transpose().transpose(), m);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixSizeSweep,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 100));

} // namespace
} // namespace dstc
