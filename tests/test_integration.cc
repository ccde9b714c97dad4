/**
 * @file
 * Cross-module integration tests: end-to-end flows exactly as the
 * benchmarks and examples run them, on sizes small enough to verify
 * functionally.
 */

#include <gtest/gtest.h>

#include "baselines/zhu_sparse_tc.h"
#include "common/rng.h"
#include "model/pruning.h"
#include "model/sparsity_gen.h"
#include "model/zoo.h"
#include "session_test_util.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(Integration, PrunedGemmEndToEnd)
{
    // AGP-prune a weight matrix, generate ReLU activations, run the
    // full dual-side SpGEMM, and check against the reference.
    Rng rng(231);
    Session session;
    Matrix<float> weights = randomSparseMatrix(96, 96, 0.0, rng);
    Matrix<float> pruned = agpPrune(weights, 0.85, 8);
    Matrix<float> acts = reluActivationMatrix(96, 96, 0.55, rng);

    KernelReport r = testutil::spgemm(session, acts, pruned);
    EXPECT_LT(maxAbsDiff(*r.d, refGemmFp16(acts, pruned)), 1e-5);
    EXPECT_GT(r.stats.mix.ohmma_skipped, 0);

    // And it is faster than the dense run of the same shape.
    SpGemmOptions timing;
    timing.functional = false;
    const double sparse_t =
        testutil::spgemm(session, acts, pruned, timing).stats.compute_us;
    Matrix<float> dense_a = randomSparseMatrix(96, 96, 0.0, rng);
    Matrix<float> dense_b = randomSparseMatrix(96, 96, 0.0, rng);
    const double dense_t =
        testutil::spgemm(session, dense_a, dense_b, timing)
            .stats.compute_us;
    EXPECT_LT(sparse_t, dense_t);
}

TEST(Integration, ConvLayerFromModelZoo)
{
    // Functional check on a scaled-down zoo layer; the timing claim
    // is asserted at the layer's real size via the timing-only path
    // (toy 16-channel shapes are launch-grain noise, not the paper's
    // operating regime).
    Rng rng(232);
    Session session;
    const ConvLayerSpec real_layer = makeResnet18().conv_layers[1];
    ConvShape shape = real_layer.shape;
    shape.in_h = shape.in_w = 14; // shrink for functional checking
    shape.in_c = 16;
    shape.out_c = 16;

    Tensor4d input = reluActivationTensor(1, 16, 14, 14, 0.5, rng);
    Matrix<float> weights = magnitudePrune(
        randomSparseMatrix(16, 16 * 9, 0.0, rng), 0.7);
    Tensor4d golden = refConv2d(input, weights, shape.params());

    for (ConvMethod method :
         {ConvMethod::DenseImplicit, ConvMethod::DualSparseImplicit}) {
        KernelReport r =
            testutil::conv(session, input, weights, shape, method);
        double worst = 0.0;
        for (size_t i = 0; i < golden.size(); ++i)
            worst = std::max(worst, static_cast<double>(std::fabs(
                                        r.output->data()[i] -
                                        golden.data()[i])));
        EXPECT_LT(worst, 2e-2) << nameOf(kConvMethods, method);
    }

    const double dense_time =
        testutil::convTime(session, real_layer.shape,
                           ConvMethod::DenseImplicit,
                           real_layer.weight_sparsity,
                           real_layer.act_sparsity, 3,
                           real_layer.weight_cluster,
                           real_layer.act_cluster)
            .timeUs();
    const double dual_time =
        testutil::convTime(session, real_layer.shape,
                           ConvMethod::DualSparseImplicit,
                           real_layer.weight_sparsity,
                           real_layer.act_sparsity, 3,
                           real_layer.weight_cluster,
                           real_layer.act_cluster)
            .timeUs();
    EXPECT_LT(dual_time, dense_time);
}

TEST(Integration, Fig21PointMatchesHeadline)
{
    // One Fig. 21 point at full size: A 0% / B 99% sparsity, ours vs
    // CUTLASS. The paper reports a clear multi-x win; our model
    // should land in the same regime (see EXPERIMENTS.md).
    Rng rng(233);
    Session session;
    SparsityProfile a =
        SparsityProfile::denseA(2048, 2048, 32);
    SparsityProfile b =
        SparsityProfile::randomA(2048, 2048, 32, 0.01, 1.0, rng);
    const double ours = testutil::spgemmTime(session, a, b).timeUs();
    const double dense =
        testutil::denseGemmTime(session, 2048, 2048, 2048).timeUs();
    EXPECT_GT(dense / ours, 3.0);
    EXPECT_LT(dense / ours, 25.0);
}

TEST(Integration, ZhuBaselineFunctionalPipeline)
{
    // Vector-prune weights into Zhu's format and validate the single
    // sparse explicit conv path computes that model's convolution.
    Rng rng(234);
    Session session;
    ConvShape shape;
    shape.in_c = 8;
    shape.in_h = shape.in_w = 10;
    shape.out_c = 8;
    shape.kernel = 3;
    shape.pad = 1;
    Tensor4d input = reluActivationTensor(1, 8, 10, 10, 0.4, rng);
    Matrix<float> weights = vectorWisePrune(
        randomSparseMatrix(8, 72, 0.0, rng), 16, kZhuPruneRatio);
    KernelReport r = testutil::conv(session, input, weights, shape,
                                    ConvMethod::SingleSparseExplicit);
    Tensor4d golden = refConv2d(input, weights, shape.params());
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(
                             r.output->data()[i] - golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST(Integration, TwoLevelBitmapHelpsClusteredHighSparsity)
{
    // Sec. VI-D: for very sparse matrices the warp-bitmap lets whole
    // warps be skipped; verify the ablation direction end to end.
    // Large enough that every sub-core is saturated, so the skipped
    // tiles' occupancy-check work would otherwise show up in the
    // makespan.
    Rng rng(235);
    Session session;
    Matrix<float> a =
        clusteredSparseMatrix(2048, 2048, 0.97, 32, 24.0, rng);
    Matrix<float> b =
        clusteredSparseMatrix(2048, 2048, 0.97, 32, 24.0, rng);
    SpGemmOptions with_skip;
    with_skip.functional = false;
    SpGemmOptions no_skip = with_skip;
    no_skip.two_level = false;
    const double skip_t =
        testutil::spgemm(session, a, b, with_skip).stats.compute_us;
    const double noskip_t =
        testutil::spgemm(session, a, b, no_skip).stats.compute_us;
    EXPECT_LT(skip_t, noskip_t);
}

TEST(Integration, DeploymentFlowPruneEncodeOnceMultiply)
{
    // The offline-weights workflow: prune, encode the weights
    // two-level once, and run the encoded-operand SpGEMM across
    // several "inference" batches.
    Rng rng(237);
    Session session;
    Matrix<float> weights =
        agpPrune(randomSparseMatrix(64, 96, 0.0, rng), 0.8, 6);

    SpGemmOptions opts;
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        weights, opts.tile_k, kWarpTile, Major::Row);
    for (int batch = 0; batch < 3; ++batch) {
        Matrix<float> acts = reluActivationMatrix(96, 64, 0.5, rng);
        TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
            acts, kWarpTile, opts.tile_k, Major::Col);
        KernelReport r =
            testutil::spgemmEncoded(session, a_enc, b_enc, opts);
        EXPECT_LT(maxAbsDiff(*r.d, refGemmFp16(acts, weights)), 1e-5)
            << "batch " << batch;
    }
}

TEST(Integration, BertLayerGemmOrdering)
{
    // A BERT FFN layer shape: single-sparse is capped; ours exploits
    // the >90% weight sparsity (Fig. 22 BERT panel).
    Rng rng(236);
    Session session;
    const auto layer = makeBertBase().gemm_layers[2]; // ffn-1
    SparsityProfile a = SparsityProfile::randomA(
        layer.m, layer.k, 32, 1.0 - layer.act_sparsity,
        layer.act_cluster, rng);
    SparsityProfile b = SparsityProfile::randomA(
        layer.n, layer.k, 32, 1.0 - layer.weight_sparsity,
        layer.weight_cluster, rng);
    const double ours = testutil::spgemmTime(session, a, b).timeUs();
    const double dense =
        testutil::denseGemmTime(session, layer.m, layer.n, layer.k)
            .timeUs();
    const double zhu =
        testutil::zhuGemmTime(session, layer.m, layer.n, layer.k,
                              layer.weight_sparsity)
            .timeUs();
    EXPECT_LT(ours, zhu);
    EXPECT_LT(zhu, dense);
}

} // namespace
} // namespace dstc
