#include "core/session.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baselines/cutlass_like.h"
#include "common/rng.h"
#include "core/thread_pool.h"
#include "gemm/spgemm_device.h"
#include "hwmodel/area_power.h"
#include "session_test_util.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

void
expectStatsBitwiseEqual(const KernelStats &a, const KernelStats &b,
                        const std::string &context)
{
    EXPECT_DOUBLE_EQ(a.compute_us, b.compute_us) << context;
    EXPECT_DOUBLE_EQ(a.memory_us, b.memory_us) << context;
    EXPECT_DOUBLE_EQ(a.dram_bytes, b.dram_bytes) << context;
    EXPECT_DOUBLE_EQ(a.launch_us, b.launch_us) << context;
    EXPECT_EQ(a.bound, b.bound) << context;
    EXPECT_EQ(a.mix.hmma, b.mix.hmma) << context;
    EXPECT_EQ(a.mix.ohmma_issued, b.mix.ohmma_issued) << context;
    EXPECT_EQ(a.mix.ohmma_skipped, b.mix.ohmma_skipped) << context;
    EXPECT_EQ(a.mix.bohmma, b.mix.bohmma) << context;
    EXPECT_EQ(a.mix.popc, b.mix.popc) << context;
    EXPECT_EQ(a.warp_tiles, b.warp_tiles) << context;
    EXPECT_EQ(a.warp_tiles_skipped, b.warp_tiles_skipped) << context;
    EXPECT_EQ(a.merge_cycles, b.merge_cycles) << context;
}

/** A mixed bag of GEMM and conv requests across all methods. */
std::vector<KernelRequest>
mixedRequests()
{
    std::vector<KernelRequest> requests;
    uint64_t seed = 1;
    for (Method method : {Method::DualSparse, Method::Dense,
                          Method::ZhuSparse, Method::AmpereSparse,
                          Method::CusparseLike, Method::Auto}) {
        KernelRequest req =
            KernelRequest::gemm(256, 256, 256, 0.6, 0.8);
        req.method = method;
        req.seed = seed++;
        requests.push_back(req);
    }
    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 64;
    for (Method method :
         {Method::DualSparse, Method::Dense, Method::ZhuSparse}) {
        KernelRequest req = KernelRequest::conv(shape, 0.7, 0.5);
        req.method = method;
        req.seed = seed++;
        requests.push_back(req);
    }
    return requests;
}

TEST(SessionTest, RunMatchesDeviceModels)
{
    // The plan-execute front end is plumbing, not math: a Session
    // run must reproduce the underlying device models bitwise.
    Session session;
    Rng rng(301);
    SparsityProfile pa =
        SparsityProfile::randomA(512, 512, 32, 0.3, 1.0, rng);
    SparsityProfile pb =
        SparsityProfile::randomA(512, 512, 32, 0.3, 1.0, rng);

    KernelRequest req = KernelRequest::gemm(pa, pb);
    req.method = Method::DualSparse;
    SpGemmDevice device(session.config());
    expectStatsBitwiseEqual(session.run(req).stats,
                            device.timeFromProfiles(pa, pb, {}),
                            "timeFromProfiles");

    KernelRequest dense = KernelRequest::gemm(2048, 1024, 512);
    dense.method = Method::Dense;
    expectStatsBitwiseEqual(session.run(dense).stats,
                            cutlassGemm(session.config(), 2048, 1024,
                                        512),
                            "cutlassGemm");
}

TEST(SessionTest, RunBatchMatchesSerialBitwise)
{
    // The core batching guarantee: runBatch over N requests is
    // statistically indistinguishable from running them serially.
    Session serial_session;
    std::vector<KernelReport> serial;
    for (const KernelRequest &req : mixedRequests())
        serial.push_back(serial_session.run(req));

    Session batch_session;
    const std::vector<KernelReport> reports =
        batch_session.runBatch(mixedRequests());
    ASSERT_EQ(reports.size(), serial.size());
    for (size_t i = 0; i < reports.size(); ++i) {
        const KernelReport &batched = reports[i];
        expectStatsBitwiseEqual(batched.stats, serial[i].stats,
                                "request " + std::to_string(i));
        EXPECT_EQ(batched.method, serial[i].method);
        EXPECT_EQ(batched.backend, serial[i].backend);
    }
}

TEST(SessionTest, RepeatedBatchesAreDeterministic)
{
    Session session;
    std::vector<KernelReport> first =
        session.runBatch(mixedRequests());
    std::vector<KernelReport> second =
        session.runBatch(mixedRequests());
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectStatsBitwiseEqual(first[i].stats, second[i].stats,
                                "request " + std::to_string(i));
}

TEST(SessionTest, SingleThreadedSessionMatchesParallel)
{
    // Serial kernels and encoders against pooled ones (every thread
    // of the shared pool, and a cap of 4): the worker budget changes
    // wall-clock only.
    SessionOptions one_thread;
    one_thread.resources = {1, 1};
    SessionOptions pooled;
    pooled.resources = {0, 4};
    Session single(one_thread);
    Session parallel(pooled);
    std::vector<KernelReport> a = single.runBatch(mixedRequests());
    std::vector<KernelReport> b = parallel.runBatch(mixedRequests());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectStatsBitwiseEqual(a[i].stats, b[i].stats,
                                "request " + std::to_string(i));
}

TEST(SessionTest, FunctionalGemmThroughSession)
{
    Session session;
    Rng rng(302);
    Matrix<float> a = randomSparseMatrix(64, 64, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.6, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::DualSparse;
    KernelReport report = session.run(req);
    ASSERT_NE(report.d, nullptr);
    EXPECT_LT(maxAbsDiff(*report.d, refGemmFp16(a, b)), 1e-5);
}

TEST(SessionTest, FunctionalBatchKeepsOperandsStraight)
{
    // Functional requests in one batch: each report must carry its
    // own product, not a neighbor's.
    Session session;
    Rng rng(303);
    std::vector<Matrix<float>> as, bs;
    for (int i = 0; i < 4; ++i) {
        as.push_back(randomSparseMatrix(48, 48, 0.5, rng));
        bs.push_back(randomSparseMatrix(48, 48, 0.5, rng));
    }
    std::vector<KernelRequest> requests;
    for (int i = 0; i < 4; ++i) {
        KernelRequest req = KernelRequest::gemm(as[i], bs[i]);
        req.method = Method::DualSparse;
        requests.push_back(req);
    }
    std::vector<KernelReport> reports =
        session.runBatch(std::move(requests));
    for (int i = 0; i < 4; ++i) {
        ASSERT_NE(reports[i].d, nullptr);
        EXPECT_LT(maxAbsDiff(*reports[i].d, refGemmFp16(as[i], bs[i])),
                  1e-5)
            << i;
    }
}

TEST(SessionTest, AutoBatchOverSharedOperandsMatchesSerialBitwise)
{
    // Auto SpMM and GEMM requests over one shared adjacency and one
    // shared weight matrix, planned and run concurrently on the pool:
    // every plan keeps its own operand memo while their encodings
    // meet in one cache, and each report equals the serial run's.
    Rng rng(404);
    const Matrix<float> adjacency = randomSparseMatrix(192, 192, 0.99, rng);
    const Matrix<float> weights = randomSparseMatrix(128, 96, 0.8, rng);
    std::vector<Matrix<float>> features, activations;
    for (int i = 0; i < 4; ++i) {
        features.push_back(randomSparseMatrix(192, 32, 0.0, rng));
        activations.push_back(randomSparseMatrix(64, 128, 0.5, rng));
    }
    std::vector<KernelRequest> requests;
    for (int repeat = 0; repeat < 2; ++repeat)
        for (int i = 0; i < 4; ++i) {
            requests.push_back(KernelRequest::spmm(adjacency, features[i])
                                   .withMethod(Method::Auto));
            requests.push_back(KernelRequest::gemm(activations[i], weights)
                                   .withMethod(Method::Auto));
        }

    Session serial;
    std::vector<KernelReport> want;
    for (const KernelRequest &request : requests)
        want.push_back(serial.run(request));
    Session pooled;
    const std::vector<KernelReport> got = pooled.runBatch(requests);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].method, want[i].method) << i;
        EXPECT_EQ(got[i].stats, want[i].stats) << i;
        EXPECT_EQ(got[i].planned_us, want[i].planned_us) << i;
        ASSERT_TRUE(got[i].d && want[i].d) << i;
        EXPECT_TRUE(*got[i].d == *want[i].d) << i;
    }
}

TEST(SessionTest, RunBatchNestsInSharedPool)
{
    // runBatch is a parallelFor on the process-shared pool, and the
    // functional kernels' tile loops are parallelFors on the same
    // pool. Batches issued from inside jobs of that pool (more jobs
    // than workers, so every worker blocks inside a batch) and from
    // two threads at once on one Session must each finish, and each
    // report must equal the serial run's bitwise.
    Rng rng(405);
    const Matrix<float> a = randomSparseMatrix(160, 128, 0.6, rng);
    const Matrix<float> b = randomSparseMatrix(128, 96, 0.7, rng);
    const Matrix<float> adjacency = randomSparseMatrix(128, 128, 0.95, rng);
    ConvShape shape;
    shape.in_c = 16;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    const Tensor4d input = randomSparseTensor(1, 16, 14, 14, 0.5, rng);
    const Matrix<float> weights = randomSparseMatrix(32, 144, 0.8, rng);
    std::vector<KernelRequest> requests = mixedRequests();
    requests.push_back(KernelRequest::gemm(a, b).withMethod(Method::Auto));
    requests.push_back(
        KernelRequest::gemm(a, b).withMethod(Method::DualSparse));
    requests.push_back(
        KernelRequest::spmm(adjacency, b).withMethod(Method::Auto));
    // Its estimates lower the real tensor on the pool inside plan().
    requests.push_back(KernelRequest::conv(input, weights, shape)
                           .withMethod(Method::Auto));

    Session serial;
    std::vector<KernelReport> want;
    for (const KernelRequest &req : requests)
        want.push_back(serial.run(req));
    auto expectSerial = [&](const std::vector<KernelReport> &got,
                            const std::string &context) {
        ASSERT_EQ(got.size(), want.size()) << context;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].stats, want[i].stats) << context << i;
            EXPECT_EQ(got[i].planned_us, want[i].planned_us)
                << context << i;
            EXPECT_EQ(got[i].backend, want[i].backend) << context << i;
            ASSERT_EQ(got[i].d == nullptr, want[i].d == nullptr)
                << context << i;
            if (got[i].d) {
                EXPECT_TRUE(*got[i].d == *want[i].d) << context << i;
            }
            ASSERT_EQ(got[i].output == nullptr,
                      want[i].output == nullptr)
                << context << i;
            if (got[i].output) {
                EXPECT_TRUE(got[i].output->data() ==
                            want[i].output->data())
                    << context << i;
            }
        }
    };

    SessionOptions options;
    // Kernels split four ways (the default would keep these small
    // kernels in the caller) and encoders on the pool.
    options.resources = {4, 0};
    Session session(options);
    ThreadPool &pool = sharedThreadPool();
    const int64_t jobs = pool.numThreads() + 1;
    std::vector<std::vector<KernelReport>> nested(jobs);
    parallelFor(&pool, jobs, pool.numThreads() + 1, [&](int64_t j) {
        nested[j] = session.runBatch(requests);
    });
    for (int64_t j = 0; j < jobs; ++j)
        expectSerial(nested[j], "pool job " + std::to_string(j) + ", req ");

    std::vector<KernelReport> first, second;
    std::thread other([&] { second = session.runBatch(requests); });
    first = session.runBatch(requests);
    other.join();
    expectSerial(first, "caller thread, req ");
    expectSerial(second, "second thread, req ");
}

TEST(SessionTest, ConfigPropagatesToBackends)
{
    GpuConfig tiny = GpuConfig::v100();
    tiny.num_sms = 8;
    Session small(tiny);
    Session big;
    EXPECT_EQ(small.config().num_sms, 8);
    KernelRequest req = KernelRequest::gemm(2048, 2048, 2048);
    req.method = Method::Dense;
    const double small_t = small.run(req).stats.compute_us;
    const double big_t = big.run(req).stats.compute_us;
    EXPECT_NEAR(small_t / big_t, 10.0, 0.5);
}

TEST(SessionTest, NonDefaultTileKFlowsThroughRequests)
{
    // The K-chunk depth is the tunable tiling knob (the 32x32 warp
    // tile itself is fixed by the architecture); tile_k variants
    // must flow through synthesis, caching and execution.
    Session session;
    KernelRequest req = KernelRequest::gemm(256, 256, 256, 0.9, 0.9);
    req.method = Method::DualSparse;
    req.withClusters(8.0, 8.0);
    req.gemm_options.functional = false;
    KernelReport shallow, deep;
    req.gemm_options.tile_k = 8;
    shallow = session.run(req);
    req.gemm_options.tile_k = 64;
    deep = session.run(req);
    EXPECT_GT(shallow.timeUs(), 0.0);
    EXPECT_GT(deep.timeUs(), 0.0);
    // Shallower K-chunks skip more empty tiles on clustered inputs.
    EXPECT_GE(shallow.stats.warp_tiles_skipped,
              deep.stats.warp_tiles_skipped);

    // Functional operands with a custom K-chunk depth.
    Rng rng(41);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.6, rng);
    KernelRequest freq = KernelRequest::gemm(a, b);
    freq.method = Method::DualSparse;
    freq.gemm_options.tile_k = 64;
    auto plan = session.plan(freq);
    EXPECT_GT(plan->estimatedTimeUs(), 0.0);
    KernelReport functional = plan->execute();
    ASSERT_NE(functional.d, nullptr);
    EXPECT_LT(maxAbsDiff(*functional.d, refGemmFp16(a, b)), 1e-5);
}

TEST(SessionTest, PlanExposesEstimateBeforeExecution)
{
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.8, 0.8);
    req.method = Method::DualSparse;
    auto plan = session.plan(req);
    const double estimate = plan->estimatedTimeUs();
    EXPECT_GT(estimate, 0.0);
    KernelReport report = plan->execute();
    EXPECT_DOUBLE_EQ(report.timeUs(), estimate);
    EXPECT_DOUBLE_EQ(report.planned_us, estimate);
}

// -- the paper's anchors, Session-native (formerly test_engine.cc) --

TEST(SessionAnchors, DenseBaselineAnchors)
{
    Session session;
    KernelStats dense =
        testutil::denseGemmTime(session, 4096, 4096, 4096);
    // Real V100 CUTLASS FP16 TC time for 4096^3 is ~1.2-1.5 ms.
    EXPECT_GT(dense.timeUs(), 1000.0);
    EXPECT_LT(dense.timeUs(), 2000.0);
}

TEST(SessionAnchors, DualSideBeatsAllBaselinesAtModerateSparsity)
{
    // A 70%/70% dual-sparse problem: ours should beat CUTLASS, the
    // fixed-rate sparse tensor core, and cuSparse (Fig. 21 region).
    Session session;
    Rng rng(223);
    const int n = 1024;
    SparsityProfile pa =
        SparsityProfile::randomA(n, n, 32, 0.3, 1.0, rng);
    SparsityProfile pb =
        SparsityProfile::randomA(n, n, 32, 0.3, 1.0, rng);
    const double ours = testutil::spgemmTime(session, pa, pb).timeUs();
    const double dense =
        testutil::denseGemmTime(session, n, n, n).timeUs();
    const double zhu =
        testutil::zhuGemmTime(session, n, n, n, 0.7).timeUs();
    const double cusparse =
        testutil::cusparseTime(session, n, n, n, 0.3, 0.3).timeUs();
    EXPECT_LT(ours, dense);
    EXPECT_LT(ours, zhu);
    EXPECT_LT(ours, cusparse);
}

TEST(SessionAnchors, ConvTimeOrderingAcrossMethods)
{
    Session session;
    ConvShape shape;
    shape.in_c = 64;
    shape.in_h = shape.in_w = 28;
    shape.out_c = 64;
    shape.kernel = 3;
    shape.pad = 1;
    const double dense_exp =
        testutil::convTime(session, shape, ConvMethod::DenseExplicit,
                           0.8, 0.6)
            .timeUs();
    const double dense_imp =
        testutil::convTime(session, shape, ConvMethod::DenseImplicit,
                           0.8, 0.6)
            .timeUs();
    const double dual =
        testutil::convTime(session, shape,
                           ConvMethod::DualSparseImplicit, 0.8, 0.6)
            .timeUs();
    EXPECT_LT(dense_imp, dense_exp);
    EXPECT_LT(dual, dense_imp);
}

TEST(SessionAnchors, HardwareOverheadExposed)
{
    Session session;
    OverheadReport report = estimateOverhead(session.config());
    EXPECT_NEAR(report.totalAreaMm2(), 12.846, 0.6);
}

TEST(SessionAnchors, A100PresetIsFasterOnMemoryBoundPoints)
{
    Session v100;
    Session a100(GpuConfig::a100Like());
    Rng rng(226);
    SparsityProfile a =
        SparsityProfile::randomA(4096, 4096, 32, 0.001, 8.0, rng);
    SparsityProfile b =
        SparsityProfile::randomA(4096, 4096, 32, 0.01, 8.0, rng);
    KernelStats v100_stats = testutil::spgemmTime(v100, a, b);
    KernelStats a100_stats = testutil::spgemmTime(a100, a, b);
    // The high-sparsity point is memory bound on the V100; the
    // A100-class memory system must shrink it.
    EXPECT_EQ(v100_stats.bound, Bound::Memory);
    EXPECT_LT(a100_stats.memory_us, v100_stats.memory_us);
    EXPECT_LT(a100_stats.timeUs(), v100_stats.timeUs());
}

TEST(SessionAnchors, FutureGpuPresetIsFasterStill)
{
    // The future-GPU preset must extend the same gradient the
    // A100-class preset starts — that speed spread is what the
    // cluster scheduler's heterogeneous placement exploits.
    Session v100;
    Session future(GpuConfig::futureGpu());
    Rng rng(227);
    SparsityProfile a =
        SparsityProfile::randomA(4096, 4096, 32, 0.001, 8.0, rng);
    SparsityProfile b =
        SparsityProfile::randomA(4096, 4096, 32, 0.01, 8.0, rng);
    EXPECT_LT(testutil::spgemmTime(future, a, b).timeUs(),
              testutil::spgemmTime(v100, a, b).timeUs());
    EXPECT_LT(testutil::denseGemmTime(future, 2048, 2048, 2048)
                  .timeUs(),
              testutil::denseGemmTime(v100, 2048, 2048, 2048)
                  .timeUs());
}

} // namespace
} // namespace dstc
