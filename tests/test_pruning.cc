#include "model/pruning.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dstc {
namespace {

TEST(Agp, ScheduleEndpoints)
{
    EXPECT_DOUBLE_EQ(agpSparsity(0.0, 0.9, 0, 100), 0.0);
    EXPECT_DOUBLE_EQ(agpSparsity(0.0, 0.9, 100, 100), 0.9);
    EXPECT_DOUBLE_EQ(agpSparsity(0.2, 0.8, 0, 10), 0.2);
}

TEST(Agp, ScheduleIsMonotoneAndFrontLoaded)
{
    double prev = -1.0;
    for (int t = 0; t <= 50; ++t) {
        const double s = agpSparsity(0.0, 0.9, t, 50);
        EXPECT_GE(s, prev);
        prev = s;
    }
    // Cubic ramp: more than half the sparsity in the first quarter.
    EXPECT_GT(agpSparsity(0.0, 0.9, 13, 50), 0.45);
}

TEST(Magnitude, HitsExactSparsity)
{
    Rng rng(211);
    Matrix<float> w = randomSparseMatrix(64, 64, 0.0, rng);
    for (double target : {0.25, 0.5, 0.75, 0.9}) {
        Matrix<float> pruned = magnitudePrune(w, target);
        // Exact up to the integer element count.
        EXPECT_NEAR(pruned.sparsity(), target,
                    1.0 / static_cast<double>(w.size()));
    }
}

TEST(Magnitude, RemovesSmallestFirst)
{
    Matrix<float> w(1, 4);
    w.at(0, 0) = 0.1f;
    w.at(0, 1) = -0.9f;
    w.at(0, 2) = 0.5f;
    w.at(0, 3) = -0.2f;
    Matrix<float> pruned = magnitudePrune(w, 0.5);
    EXPECT_EQ(pruned.at(0, 0), 0.0f);
    EXPECT_EQ(pruned.at(0, 3), 0.0f);
    EXPECT_EQ(pruned.at(0, 1), -0.9f);
    EXPECT_EQ(pruned.at(0, 2), 0.5f);
}

TEST(Magnitude, MasksAreNested)
{
    // Pruning further never resurrects a zeroed weight.
    Rng rng(212);
    Matrix<float> w = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> p50 = magnitudePrune(w, 0.5);
    Matrix<float> p80 = magnitudePrune(p50, 0.8);
    for (int r = 0; r < 32; ++r)
        for (int c = 0; c < 32; ++c)
            if (p50.at(r, c) == 0.0f) {
                EXPECT_EQ(p80.at(r, c), 0.0f);
            }
}

TEST(VectorWise, EachVectorKeepsQuota)
{
    Rng rng(213);
    Matrix<float> w = randomSparseMatrix(8, 64, 0.0, rng);
    Matrix<float> pruned = vectorWisePrune(w, 16, 0.75);
    for (int r = 0; r < 8; ++r) {
        for (int v0 = 0; v0 < 64; v0 += 16) {
            int nnz = 0;
            for (int c = v0; c < v0 + 16; ++c)
                nnz += pruned.at(r, c) != 0.0f;
            EXPECT_EQ(nnz, 4); // 25% of 16
        }
    }
    EXPECT_NEAR(pruned.sparsity(), 0.75, 1e-9);
}

TEST(VectorWise, KeepsLargestMagnitudes)
{
    Matrix<float> w(1, 4);
    w.at(0, 0) = 0.9f;
    w.at(0, 1) = 0.1f;
    w.at(0, 2) = -0.8f;
    w.at(0, 3) = 0.2f;
    Matrix<float> pruned = vectorWisePrune(w, 4, 0.5);
    EXPECT_EQ(pruned.at(0, 0), 0.9f);
    EXPECT_EQ(pruned.at(0, 2), -0.8f);
    EXPECT_EQ(pruned.at(0, 1), 0.0f);
    EXPECT_EQ(pruned.at(0, 3), 0.0f);
}

TEST(Prune2of4, QuadInvariant)
{
    Rng rng(214);
    Matrix<float> w = randomSparseMatrix(16, 32, 0.0, rng);
    Matrix<float> pruned = prune2of4(w);
    for (int r = 0; r < 16; ++r) {
        for (int v0 = 0; v0 < 32; v0 += 4) {
            int nnz = 0;
            for (int c = v0; c < v0 + 4; ++c)
                nnz += pruned.at(r, c) != 0.0f;
            EXPECT_EQ(nnz, 2);
        }
    }
    EXPECT_NEAR(pruned.sparsity(), 0.5, 1e-9);
}

TEST(AgpPrune, ReachesFinalSparsity)
{
    Rng rng(215);
    Matrix<float> w = randomSparseMatrix(48, 48, 0.0, rng);
    Matrix<float> pruned = agpPrune(w, 0.9, 10);
    EXPECT_NEAR(pruned.sparsity(), 0.9, 0.01);
}

} // namespace
} // namespace dstc
