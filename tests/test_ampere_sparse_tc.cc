#include "baselines/ampere_sparse_tc.h"

#include <gtest/gtest.h>

#include "baselines/cutlass_like.h"
#include "baselines/zhu_sparse_tc.h"
#include "common/rng.h"
#include "core/session.h"
#include "model/pruning.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(AmpereSparseTc, FixedSpeedupOverDense)
{
    GpuConfig cfg = GpuConfig::v100();
    const double dense = cutlassGemm(cfg, 4096, 4096, 4096).timeUs();
    const double ampere = ampereGemm(cfg, 4096, 4096, 4096).timeUs();
    EXPECT_NEAR(dense / ampere, kAmpereEffectiveSpeedup, 0.25);
}

TEST(AmpereSparseTc, CannotExploitExtraSparsity)
{
    Session session;
    auto timeAt = [&](double weight_sparsity) {
        return session
            .run(KernelRequest::gemm(2048, 2048, 2048, 0.0,
                                     weight_sparsity)
                     .withMethod(Method::AmpereSparse))
            .timeUs();
    };
    EXPECT_DOUBLE_EQ(timeAt(0.5), timeAt(0.9));
}

TEST(AmpereSparseTc, FunctionalEqualsDenseOnPrunedWeights)
{
    Rng rng(161);
    Matrix<float> a = randomSparseMatrix(24, 24, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(24, 24, 0.0, rng);
    Matrix<float> pruned = prune2of4(b);
    EXPECT_LT(maxAbsDiff(ampereGemmFunctional(a, b),
                         refGemmFp16(a, pruned)),
              1e-6);
    EXPECT_NEAR(pruned.sparsity(), kAmperePruneRatio, 1e-9);
}

TEST(AmpereSparseTc, MidwayBetweenDenseAndVectorWise)
{
    // 2:4 exploits less sparsity than the vector-wise 75% design:
    // its fixed speedup sits between dense and Zhu's on compute-
    // bound shapes.
    GpuConfig cfg = GpuConfig::v100();
    const double dense = cutlassGemm(cfg, 4096, 4096, 4096).timeUs();
    const double ampere = ampereGemm(cfg, 4096, 4096, 4096).timeUs();
    const double zhu = zhuGemm(cfg, 4096, 4096, 4096).timeUs();
    EXPECT_LT(ampere, dense);
    EXPECT_GT(ampere, zhu);
}

} // namespace
} // namespace dstc
