#include "model/runner.h"

#include <gtest/gtest.h>

#include "core/cluster.h"

namespace dstc {
namespace {

class RunnerTest : public ::testing::Test
{
  protected:
    Session session_;
    ModelRunner runner_{session_};
};

TEST_F(RunnerTest, RunsEveryLayerOfEveryModel)
{
    for (const auto &model : allModels()) {
        ModelRunResult result =
            runner_.run(model, ModelMethod::DualSparseImplicit);
        EXPECT_EQ(result.layers.size(),
                  model.conv_layers.size() + model.gemm_layers.size())
            << model.name;
        EXPECT_GT(result.totalTimeUs(), 0.0) << model.name;
        for (const auto &layer : result.layers)
            EXPECT_GT(layer.stats.timeUs(), 0.0)
                << model.name << "/" << layer.name;
    }
}

TEST_F(RunnerTest, DeterministicPerSeed)
{
    DnnModel model = makeResnet18();
    ModelRunResult a =
        runner_.run(model, ModelMethod::DualSparseImplicit, 5);
    ModelRunResult b =
        runner_.run(model, ModelMethod::DualSparseImplicit, 5);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i)
        EXPECT_DOUBLE_EQ(a.layers[i].stats.timeUs(),
                         b.layers[i].stats.timeUs());
}

TEST_F(RunnerTest, MethodOrderingOnCnns)
{
    // The paper's full-model ordering: Dual < SingleImplicit <
    // DenseImplicit in time (Fig. 22).
    for (const auto &model : {makeVgg16(), makeResnet18()}) {
        const double dense =
            runner_.run(model, ModelMethod::DenseImplicit)
                .totalTimeUs();
        const double single =
            runner_.run(model, ModelMethod::SingleSparseImplicit)
                .totalTimeUs();
        const double dual =
            runner_.run(model, ModelMethod::DualSparseImplicit)
                .totalTimeUs();
        EXPECT_LT(dual, single) << model.name;
        EXPECT_LT(single, dense) << model.name;
    }
}

TEST_F(RunnerTest, FullModelSpeedupInPaperBand)
{
    // Fig. 22: Dual Sparse Implicit averages ~4.4x over Dense
    // Implicit on the CNNs; allow a generous band around it.
    DnnModel model = makeVgg16();
    const double dense =
        runner_.run(model, ModelMethod::DenseImplicit).totalTimeUs();
    const double dual =
        runner_.run(model, ModelMethod::DualSparseImplicit)
            .totalTimeUs();
    EXPECT_GT(dense / dual, 2.0);
    EXPECT_LT(dense / dual, 10.0);
}

TEST_F(RunnerTest, GemmModelsUseThreeDistinctMethods)
{
    DnnModel bert = makeBertBase();
    const double dense =
        runner_.run(bert, ModelMethod::DenseImplicit).totalTimeUs();
    const double single =
        runner_.run(bert, ModelMethod::SingleSparseImplicit)
            .totalTimeUs();
    const double dual =
        runner_.run(bert, ModelMethod::DualSparseImplicit)
            .totalTimeUs();
    EXPECT_LT(single, dense);
    EXPECT_LT(dual, single);
}

TEST(ModelMethodNames, MatchLegend)
{
    EXPECT_STREQ(legendName(ModelMethod::DualSparseImplicit),
                 "Dual Sparse Implicit");
    EXPECT_STREQ(legendName(ModelMethod::DenseExplicit),
                 "Dense Explicit");
    EXPECT_STREQ(legendName(ModelMethod::Auto), "Auto");
    const ModelStrategy &automatic = rowOf(kModelMethods, ModelMethod::Auto);
    EXPECT_TRUE(automatic.method == Method::Auto);
    EXPECT_TRUE(automatic.lowering == Lowering::Implicit);
}

TEST(ModelMethods, RunTheirNamesakeConvStrategies)
{
    // ModelMethod lists the conv strategies in ConvMethod's order,
    // then Auto; each row's (method, lowering) pair is the one of its
    // namesake conv strategy, so it shows that strategy's legend name.
    for (const Term<ConvMethod> &conv : kConvMethods)
        EXPECT_STREQ(legendName(static_cast<ModelMethod>(conv.value)),
                     conv.name);
}

TEST_F(RunnerTest, LayerRequestsCoverEveryLayer)
{
    DnnModel model = makeMaskRcnn();
    std::vector<KernelRequest> requests = ModelRunner::layerRequests(
        model, ModelMethod::DualSparseImplicit, 7);
    EXPECT_EQ(requests.size(),
              model.conv_layers.size() + model.gemm_layers.size());
    for (const auto &req : requests)
        EXPECT_EQ(req.method, Method::DualSparse) << req.tag;
}

TEST_F(RunnerTest, AutoMethodRunsAndBeatsOrMatchesDual)
{
    // Auto picks per layer, so the full model can only be as fast or
    // faster than any single fixed strategy.
    DnnModel model = makeResnet18();
    const double dual =
        runner_.run(model, ModelMethod::DualSparseImplicit)
            .totalTimeUs();
    ModelRunResult auto_run = runner_.run(model, ModelMethod::Auto);
    EXPECT_LE(auto_run.totalTimeUs(), dual * 1.0001);
    for (const auto &layer : auto_run.layers)
        EXPECT_FALSE(layer.backend.empty()) << layer.name;
}

TEST_F(RunnerTest, ShardedModelMatchesSerialRunner)
{
    // The layer batch placed over a homogeneous cluster must
    // reproduce the single-Session run layer for layer.
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::v100()};
    Cluster cluster(opts);
    ModelRunResult serial =
        runner_.run(makeRnnLM(), ModelMethod::DualSparseImplicit, 9);
    std::vector<KernelReport> sharded =
        cluster.runBatch(ModelRunner::layerRequests(
            makeRnnLM(), ModelMethod::DualSparseImplicit, 9));
    ASSERT_EQ(serial.layers.size(), sharded.size());
    double sharded_total = 0.0;
    for (size_t i = 0; i < serial.layers.size(); ++i) {
        EXPECT_EQ(serial.layers[i].name, sharded[i].tag);
        EXPECT_DOUBLE_EQ(serial.layers[i].stats.timeUs(),
                         sharded[i].timeUs());
        EXPECT_GE(sharded[i].device, 0);
        EXPECT_LT(sharded[i].device, 2);
        sharded_total += sharded[i].timeUs();
    }
    EXPECT_DOUBLE_EQ(serial.totalTimeUs(), sharded_total);
}

} // namespace
} // namespace dstc
