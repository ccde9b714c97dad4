#include "baselines/zhu_sparse_tc.h"

#include <gtest/gtest.h>

#include "baselines/cutlass_like.h"
#include "common/rng.h"
#include "core/session.h"
#include "model/pruning.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(ZhuSparseTc, FixedSpeedupOverDense)
{
    GpuConfig cfg = GpuConfig::v100();
    const double dense = cutlassGemm(cfg, 4096, 4096, 4096).timeUs();
    const double zhu = zhuGemm(cfg, 4096, 4096, 4096).timeUs();
    // Fig. 21: a fixed ~1.86x line regardless of actual sparsity.
    EXPECT_NEAR(dense / zhu, kZhuEffectiveSpeedup, 0.25);
}

TEST(ZhuSparseTc, CannotExploitExtraSparsity)
{
    Session session;
    auto timeAt = [&](double weight_sparsity) {
        return session
            .run(KernelRequest::gemm(2048, 2048, 2048, 0.0,
                                     weight_sparsity)
                     .withMethod(Method::ZhuSparse))
            .timeUs();
    };
    // Hard format limit (Sec. VI-D): 95% weights time as 75% ones.
    EXPECT_DOUBLE_EQ(timeAt(0.75), timeAt(0.95));
}

TEST(ZhuSparseTc, FunctionalEqualsDenseOnPrunedWeights)
{
    Rng rng(151);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> pruned = vectorWisePrune(b, 16, kZhuPruneRatio);
    EXPECT_LT(maxAbsDiff(zhuGemmFunctional(a, b),
                         refGemmFp16(a, pruned)),
              1e-6);
    // The pruned operand really is 75% sparse.
    EXPECT_NEAR(pruned.sparsity(), kZhuPruneRatio, 0.01);
}

TEST(ZhuSparseTc, WeightTrafficIsCondensed)
{
    GpuConfig cfg = GpuConfig::v100();
    KernelStats zhu = zhuGemm(cfg, 512, 512, 4096);
    KernelStats dense = cutlassGemm(cfg, 512, 512, 4096);
    EXPECT_LT(zhu.dram_bytes, dense.dram_bytes);
}

} // namespace
} // namespace dstc
