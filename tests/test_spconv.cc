#include "conv/spconv.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/sparsity_gen.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

class SpConvTest : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = GpuConfig::v100();
    ConvExecutor executor_{cfg_};

    ConvShape
    shape(int c = 4, int hw = 10, int oc = 6, int kernel = 3,
          int stride = 1, int pad = 1) const
    {
        ConvShape s;
        s.batch = 1;
        s.in_c = c;
        s.in_h = s.in_w = hw;
        s.out_c = oc;
        s.kernel = kernel;
        s.stride = stride;
        s.pad = pad;
        return s;
    }
};

TEST_F(SpConvTest, AllMethodsComputeTheSameConvolution)
{
    Rng rng(191);
    ConvShape s = shape();
    Tensor4d input = reluActivationTensor(1, 4, 10, 10, 0.5, rng);
    Matrix<float> weights = randomSparseMatrix(6, 36, 0.7, rng);
    Tensor4d golden = refConv2d(input, weights, s.params());

    for (ConvMethod method :
         {ConvMethod::DenseExplicit, ConvMethod::DenseImplicit,
          ConvMethod::SingleSparseExplicit,
          ConvMethod::SingleSparseImplicit,
          ConvMethod::DualSparseImplicit}) {
        ConvResult r = executor_.run(input, weights, s, method);
        double worst = 0.0;
        for (size_t i = 0; i < golden.size(); ++i)
            worst = std::max(worst, static_cast<double>(std::fabs(
                                        r.output.data()[i] -
                                        golden.data()[i])));
        EXPECT_LT(worst, 2e-2) << nameOf(kConvMethods, method);
        EXPECT_GT(r.stats.timeUs(), 0.0);
    }
}

TEST_F(SpConvTest, DualSparseBeatsDenseAtHighSparsity)
{
    Rng rng(192);
    ConvShape s = shape(32, 28, 32);
    Tensor4d input = reluActivationTensor(1, 32, 28, 28, 0.7, rng);
    Matrix<float> weights = randomSparseMatrix(32, 32 * 9, 0.85, rng);

    const double dense =
        executor_.run(input, weights, s, ConvMethod::DenseImplicit)
            .stats.timeUs();
    const double dual =
        executor_
            .run(input, weights, s, ConvMethod::DualSparseImplicit)
            .stats.timeUs();
    EXPECT_GT(dense / dual, 1.3);
}

TEST_F(SpConvTest, ImplicitBeatsExplicitOnDense)
{
    // cuDNN's headline: implicit im2col avoids the lowered-matrix
    // round trip through DRAM.
    KernelStats exp_stats = executor_.timeOnly(
        shape(64, 56, 64), ConvMethod::DenseExplicit, 0.0, 0.0);
    KernelStats imp_stats = executor_.timeOnly(
        shape(64, 56, 64), ConvMethod::DenseImplicit, 0.0, 0.0);
    EXPECT_LT(imp_stats.timeUs(), exp_stats.timeUs());
    EXPECT_LT(imp_stats.dram_bytes, exp_stats.dram_bytes);
}

TEST_F(SpConvTest, SingleSparseImplicitIgnoresActivationSparsity)
{
    ConvShape s = shape(64, 28, 64);
    KernelStats dense_act = executor_.timeOnly(
        s, ConvMethod::SingleSparseImplicit, 0.8, 0.0, 7);
    KernelStats sparse_act = executor_.timeOnly(
        s, ConvMethod::SingleSparseImplicit, 0.8, 0.9, 7);
    // Same seed, same weights: activation sparsity must not matter.
    EXPECT_NEAR(dense_act.timeUs(), sparse_act.timeUs(),
                dense_act.timeUs() * 0.01);
}

TEST_F(SpConvTest, DualSparseExploitsBothSides)
{
    ConvShape s = shape(64, 28, 64);
    const double weight_only =
        executor_
            .timeOnly(s, ConvMethod::DualSparseImplicit, 0.8, 0.0, 7)
            .timeUs();
    const double both =
        executor_
            .timeOnly(s, ConvMethod::DualSparseImplicit, 0.8, 0.6, 7)
            .timeUs();
    EXPECT_LT(both, weight_only);
}

TEST_F(SpConvTest, TimeOnlyIsDeterministicPerSeed)
{
    ConvShape s = shape(16, 14, 16);
    const double a =
        executor_
            .timeOnly(s, ConvMethod::DualSparseImplicit, 0.7, 0.5, 3)
            .timeUs();
    const double b =
        executor_
            .timeOnly(s, ConvMethod::DualSparseImplicit, 0.7, 0.5, 3)
            .timeUs();
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(SpConvTest, StridedAndPaddedConvRunsAllMethods)
{
    Rng rng(193);
    ConvShape s = shape(3, 11, 5, 3, 2, 1);
    Tensor4d input = reluActivationTensor(1, 3, 11, 11, 0.4, rng);
    Matrix<float> weights = randomSparseMatrix(5, 27, 0.5, rng);
    Tensor4d golden = refConv2d(input, weights, s.params());
    ConvResult r =
        executor_.run(input, weights, s, ConvMethod::DualSparseImplicit);
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst, static_cast<double>(std::fabs(
                                    r.output.data()[i] -
                                    golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST_F(SpConvTest, MethodNamesMatchLegend)
{
    EXPECT_STREQ(nameOf(kConvMethods, ConvMethod::DenseImplicit),
                 "Dense Implicit");
    EXPECT_STREQ(nameOf(kConvMethods, ConvMethod::DualSparseImplicit),
                 "Dual Sparse Implicit");
}

} // namespace
} // namespace dstc
