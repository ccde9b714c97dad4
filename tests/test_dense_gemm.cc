#include "gemm/dense_gemm.h"

#include <gtest/gtest.h>

#include "baselines/cutlass_like.h"
#include "common/rng.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

class DenseGemmTest : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = GpuConfig::v100();
    DenseGemmDevice device_{cfg_};
};

TEST_F(DenseGemmTest, FunctionalMatchesReference)
{
    Rng rng(131);
    Matrix<float> a = randomSparseMatrix(48, 32, 0.2, rng);
    Matrix<float> b = randomSparseMatrix(32, 48, 0.2, rng);
    Matrix<float> inner = device_.multiply(a, b, false);
    Matrix<float> outer = device_.multiply(a, b, true);
    EXPECT_LT(maxAbsDiff(inner, refGemmFp16(a, b)), 1e-5);
    EXPECT_EQ(maxAbsDiff(inner, outer), 0.0);
}

TEST_F(DenseGemmTest, NonAlignedShapes)
{
    Rng rng(132);
    Matrix<float> a = randomSparseMatrix(17, 23, 0.1, rng);
    Matrix<float> b = randomSparseMatrix(23, 29, 0.1, rng);
    EXPECT_LT(maxAbsDiff(device_.multiply(a, b), refGemmFp16(a, b)),
              1e-5);
}

TEST_F(DenseGemmTest, TimeScalesWithWork)
{
    KernelStats small = device_.timeOnly(1024, 1024, 1024);
    KernelStats big = device_.timeOnly(4096, 4096, 4096);
    // 64x the MACs => ~64x compute time.
    EXPECT_NEAR(big.compute_us / small.compute_us, 64.0, 6.0);
}

TEST_F(DenseGemmTest, V100PeakThroughputAnchor)
{
    // 4096^3 at 80% of 125 TFLOPS peak: ~1.37 ms compute.
    KernelStats stats = device_.timeOnly(4096, 4096, 4096);
    EXPECT_GT(stats.compute_us, 1000.0);
    EXPECT_LT(stats.compute_us, 1800.0);
    EXPECT_EQ(stats.bound, Bound::Compute);
}

TEST_F(DenseGemmTest, SmallProblemsAreMemoryOrLaunchBound)
{
    KernelStats stats = device_.timeOnly(64, 64, 64);
    EXPECT_LT(stats.compute_us, 1.0);
    EXPECT_GT(stats.timeUs(), stats.compute_us);
}

TEST(CutlassLike, WrapsDenseTiming)
{
    GpuConfig cfg = GpuConfig::v100();
    KernelStats a = cutlassGemm(cfg, 2048, 2048, 2048);
    DenseGemmDevice device(cfg);
    KernelStats b = device.timeOnly(2048, 2048, 2048);
    EXPECT_DOUBLE_EQ(a.timeUs(), b.timeUs());
    EXPECT_EQ(a.name, "cutlass");
}

} // namespace
} // namespace dstc
