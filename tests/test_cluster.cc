/**
 * @file
 * Cluster determinism and placement tests: the sharded multi-device
 * front end must keep the PR 2-4 contract — every report bitwise
 * identical to serial single-Session execution on the placed
 * device's config — for every device count, policy and worker
 * count, while the cost-model scheduler actually exploits
 * heterogeneous device speed.
 */
#include "core/cluster.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
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

/** A mixed bag of GEMM and conv requests across methods (the same
 *  shape of workload test_session.cc batches). */
std::vector<KernelRequest>
mixedRequests()
{
    std::vector<KernelRequest> requests;
    uint64_t seed = 1;
    for (Method method : {Method::DualSparse, Method::Dense,
                          Method::ZhuSparse, Method::AmpereSparse,
                          Method::CusparseLike, Method::Auto,
                          Method::Hybrid}) {
        KernelRequest req =
            KernelRequest::gemm(256, 256, 256, 0.6, 0.8);
        req.method = method;
        req.seed = seed++;
        requests.push_back(req);
    }
    // A hybrid request whose groups really differ in density
    // (clustered pattern), so the composer's split path rides
    // through every placement/worker/replay pin below.
    KernelRequest hybrid =
        KernelRequest::gemm(512, 256, 256, 0.55, 0.5);
    hybrid.method = Method::Hybrid;
    hybrid.withClusters(8.0, 1.0);
    hybrid.seed = seed++;
    requests.push_back(hybrid);
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

/** Requests placed per device, read off the reports. */
std::vector<int>
placedPerDevice(const std::vector<KernelReport> &reports,
                size_t devices)
{
    std::vector<int> placed(devices, 0);
    for (const KernelReport &report : reports)
        ++placed.at(static_cast<size_t>(report.device));
    return placed;
}

constexpr PlacementPolicy kAllPolicies[] = {
    PlacementPolicy::CostModel, PlacementPolicy::RoundRobin,
    PlacementPolicy::StaticShard};

TEST(PlacementRuleTest, EarliestFinishAndNthLive)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const struct
    {
        const char *what;
        std::vector<DeviceView> views;
        size_t earliest;
        uint64_t ticket;
        size_t nth;
    } cases[] = {
        {"lowest finish", {{true, 5, true}, {true, 3, true}, {true, 4, true}},
         1, 1, 1},
        {"ties go to the lowest index",
         {{true, 3, true}, {true, 2, true}, {true, 2, true}}, 1, 0, 0},
        {"dead devices are skipped",
         {{false, 1, true}, {true, 4, true}, {false, 0, true},
          {true, 3, true}},
         3, 1, 3},
        {"a met deadline beats an earlier miss",
         {{true, 1, false}, {true, 9, true}, {true, 8, true}}, 2, 2, 2},
        {"all miss: the earliest finish",
         {{true, 7, false}, {true, 6, false}}, 1, 0, 0},
        {"a lone live device", {{false, 1, true}, {true, kInf, false}}, 1,
         5, 1},
        {"no live device", {{false, 1, true}, {false, 2, true}}, 2, 7, 2},
        {"no device", {}, 0, 3, 0},
        {"the ticket wraps over the live count",
         {{true, 0, true}, {false, 0, true}, {true, 0, true},
          {true, 0, true}},
         0, 7, 2}, // 7 mod 3 live = 1 -> the second live device
        {"a 64-bit shard key", {{true, 0, true}, {true, 0, true}}, 0,
         0xffffffffffffffffull, 1},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(earliestFinish(c.views), c.earliest) << c.what;
        EXPECT_EQ(nthLive(c.views, c.ticket), c.nth) << c.what;
    }
    // Consecutive tickets visit every live device in index order.
    const std::vector<DeviceView> views = {
        {true, 0, true}, {false, 0, true}, {true, 0, true}};
    std::vector<size_t> order;
    for (uint64_t t = 0; t < 4; ++t)
        order.push_back(nthLive(views, t));
    EXPECT_EQ(order, (std::vector<size_t>{0, 2, 0, 2}));
}

TEST(ClusterTest, EveryPolicyDeviceCountAndWorkerCountIsBitwise)
{
    // The acceptance grid: device counts {1, 2, 4} x all three
    // policies x execution resources serial {1, 1} and pooled
    // {4, 4}, every report bitwise identical to serial
    // single-Session execution.
    Session serial_session;
    std::vector<KernelReport> serial;
    for (const KernelRequest &req : mixedRequests())
        serial.push_back(serial_session.run(req));

    for (size_t devices : {1u, 2u, 4u}) {
        for (PlacementPolicy policy : kAllPolicies) {
            for (int workers : {1, 4}) {
                ClusterOptions opts;
                opts.devices.assign(devices, GpuConfig::v100());
                opts.policy = policy;
                opts.resources = {workers, workers};
                Cluster cluster(opts);
                std::vector<KernelReport> reports =
                    cluster.runBatch(mixedRequests());
                ASSERT_EQ(reports.size(), serial.size());
                for (size_t i = 0; i < reports.size(); ++i) {
                    const std::string context =
                        std::to_string(devices) + " devices, " +
                        tokenOf(kPlacementPolicies, policy) + ", " +
                        std::to_string(workers) + " workers, req " +
                        std::to_string(i);
                    expectStatsBitwiseEqual(reports[i].stats,
                                            serial[i].stats, context);
                    EXPECT_EQ(reports[i].method, serial[i].method)
                        << context;
                    EXPECT_EQ(reports[i].backend, serial[i].backend)
                        << context;
                    EXPECT_GE(reports[i].device, 0) << context;
                    EXPECT_LT(reports[i].device,
                              static_cast<int>(devices))
                        << context;
                }
            }
        }
    }
}

TEST(ClusterTest, HeterogeneousReportsMatchPlacedDeviceSerially)
{
    // On a mixed-config cluster every report must be reproducible by
    // a fresh single Session with the placed device's GpuConfig.
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::a100Like(),
                    GpuConfig::futureGpu()};
    for (PlacementPolicy policy : kAllPolicies) {
        opts.policy = policy;
        Cluster cluster(opts);
        std::vector<KernelRequest> requests = mixedRequests();
        std::vector<KernelReport> reports =
            cluster.runBatch(mixedRequests());
        ASSERT_EQ(reports.size(), requests.size());
        for (size_t i = 0; i < reports.size(); ++i) {
            ASSERT_GE(reports[i].device, 0);
            ASSERT_LT(reports[i].device, 3);
            Session reference(
                cluster.deviceConfig(reports[i].device));
            KernelReport serial = reference.run(requests[i]);
            expectStatsBitwiseEqual(
                reports[i].stats, serial.stats,
                std::string(tokenOf(kPlacementPolicies, policy)) +
                    ", req " + std::to_string(i));
            EXPECT_EQ(reports[i].backend, serial.backend);
        }
    }
}

TEST(ClusterTest, PlacementIsDeterministic)
{
    // Placement is a pure function of the batch: the execution
    // resources, a fresh cluster and a second batch on the same
    // cluster (every batch places from idle devices) all see the
    // same schedule.
    for (PlacementPolicy policy : kAllPolicies) {
        std::vector<std::vector<int>> schedules;
        for (int workers : {1, 4, 1}) {
            ClusterOptions opts;
            opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu(),
                            GpuConfig::a100Like()};
            opts.policy = policy;
            opts.resources = {workers, workers};
            Cluster cluster(opts);
            for (int batch = 0; batch < 2; ++batch) {
                std::vector<int> schedule;
                for (const KernelReport &report :
                     cluster.runBatch(mixedRequests()))
                    schedule.push_back(report.device);
                schedules.push_back(std::move(schedule));
            }
        }
        for (size_t i = 1; i < schedules.size(); ++i)
            EXPECT_EQ(schedules[0], schedules[i])
                << tokenOf(kPlacementPolicies, policy) << ", run "
                << i;
    }
}

TEST(ClusterTest, CostModelShiftsLoadToTheFasterDevice)
{
    // 12 identical timing requests on {V100, future-GPU}: the ETF
    // queue must hand the faster device the larger share, and beat
    // round-robin's simulated makespan.
    std::vector<KernelRequest> requests;
    for (int i = 0; i < 12; ++i)
        requests.push_back(
            KernelRequest::gemm(1024, 1024, 1024, 0.7, 0.9));

    auto makespan = [](const std::vector<KernelReport> &reports) {
        double device_us[2] = {0.0, 0.0};
        for (const KernelReport &r : reports)
            device_us[r.device] += r.stats.timeUs();
        return std::max(device_us[0], device_us[1]);
    };

    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu()};
    opts.policy = PlacementPolicy::CostModel;
    Cluster cost(opts);
    std::vector<KernelReport> cost_reports = cost.runBatch(requests);
    const std::vector<int> cost_placed = placedPerDevice(cost_reports, 2);
    EXPECT_GT(cost_placed[1], cost_placed[0]);
    EXPECT_GT(cost.estimateOn(1, requests[0]), 0.0);

    opts.policy = PlacementPolicy::RoundRobin;
    Cluster rr(opts);
    std::vector<KernelReport> rr_reports = rr.runBatch(requests);
    const std::vector<int> rr_placed = placedPerDevice(rr_reports, 2);
    EXPECT_EQ(rr_placed[0], rr_placed[1]);
    EXPECT_LT(makespan(cost_reports), makespan(rr_reports));
}

TEST(ClusterTest, StaticShardIsStableAcrossClustersAndOrder)
{
    // The shard key is structural: the same request lands on the
    // same device in any cluster of the same size, regardless of
    // submission order or what else is in the batch.
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::v100(),
                    GpuConfig::v100()};
    opts.policy = PlacementPolicy::StaticShard;
    Cluster first(opts);
    Cluster second(opts);

    std::vector<KernelRequest> forward = mixedRequests();
    std::vector<KernelRequest> reversed(forward.rbegin(),
                                        forward.rend());
    std::vector<KernelReport> a = first.runBatch(forward);
    std::vector<KernelReport> b = second.runBatch(reversed);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].device, b[a.size() - 1 - i].device)
            << "request " << i;
}

TEST(ClusterTest, PlacementAccountingIsConsistent)
{
    // Every request of the batch is placed on exactly one device and
    // reported once.
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::a100Like()};
    Cluster cluster(opts);
    const size_t n = mixedRequests().size();
    const std::vector<KernelReport> reports =
        cluster.runBatch(mixedRequests());
    ASSERT_EQ(reports.size(), n);
    int placed = 0;
    for (int count : placedPerDevice(reports, cluster.numDevices())) {
        EXPECT_GE(count, 0);
        placed += count;
    }
    EXPECT_EQ(placed, static_cast<int>(n));
}

TEST(ClusterTest, EstimatesAreConfigKeyedInTheSharedCache)
{
    // The cluster-estimate cache family folds the device's machine
    // parameters into its key (CacheKey::gpuConfig): the same
    // request estimated on two configs must yield two distinct
    // cached values — a key collision would silently hand device 1
    // device 0's estimate and corrupt placement.
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu()};
    Cluster cluster(opts);
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.8, 0.9);
    req.method = Method::DualSparse;
    const double v100_us = cluster.estimateOn(0, req);
    const double future_us = cluster.estimateOn(1, req);
    EXPECT_GT(v100_us, 0.0);
    EXPECT_GT(future_us, 0.0);
    EXPECT_NE(v100_us, future_us);
    EXPECT_LT(future_us, v100_us); // the faster machine estimates less
    // Cached: re-asking must reproduce the per-config values.
    EXPECT_DOUBLE_EQ(cluster.estimateOn(0, req), v100_us);
    EXPECT_DOUBLE_EQ(cluster.estimateOn(1, req), future_us);

    // Identical configs fold to identical keys: a homogeneous pair
    // estimates once and shares the entry.
    ClusterOptions same;
    same.devices = {GpuConfig::v100(), GpuConfig::v100()};
    Cluster homogeneous(same);
    const double first = homogeneous.estimateOn(0, req);
    const auto before = homogeneous.encodingCache().counters();
    EXPECT_DOUBLE_EQ(homogeneous.estimateOn(1, req), first);
    const auto after = homogeneous.encodingCache().counters();
    EXPECT_EQ(before.misses, after.misses);
    EXPECT_GT(after.hits, before.hits);
}

TEST(ClusterTest, SharedCacheDeduplicatesEncodingsAcrossDevices)
{
    // One functional operand pair submitted across a heterogeneous
    // cluster: the two-level encodings are pure in the operand
    // contents, so whichever device encodes first, the others hit.
    Rng rng(401);
    Matrix<float> a = randomSparseMatrix(96, 96, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(96, 96, 0.7, rng);
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu()};
    opts.policy = PlacementPolicy::RoundRobin; // one per device
    Cluster cluster(opts);
    std::vector<KernelRequest> requests;
    for (int i = 0; i < 2; ++i) {
        KernelRequest req = KernelRequest::gemm(a, b);
        req.method = Method::DualSparse;
        requests.push_back(req);
    }
    std::vector<KernelReport> reports =
        cluster.runBatch(std::move(requests));
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_NE(reports[0].device, reports[1].device);
    // Both computed the same product (values are machine-independent).
    ASSERT_NE(reports[0].d, nullptr);
    ASSERT_NE(reports[1].d, nullptr);
    EXPECT_LT(maxAbsDiff(*reports[0].d, refGemmFp16(a, b)), 1e-5);
    EXPECT_EQ(reports[0].d->data(), reports[1].d->data());
    // And at least one request was served encodings from the cache.
    EXPECT_TRUE(reports[0].encode_cache_hit ||
                reports[1].encode_cache_hit);
}

TEST(ClusterTest, EmptyBatchIsANoOp)
{
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::v100()};
    for (PlacementPolicy policy : kAllPolicies) {
        opts.policy = policy;
        Cluster cluster(opts);
        EXPECT_TRUE(cluster.runBatch({}).empty());
        // It leaves no trace: the next batch places as on a fresh
        // cluster.
        Cluster fresh(opts);
        EXPECT_EQ(placedPerDevice(cluster.runBatch(mixedRequests()), 2),
                  placedPerDevice(fresh.runBatch(mixedRequests()), 2))
            << tokenOf(kPlacementPolicies, policy);
    }
}

TEST(ClusterTest, RunBatchReportsAreIndexAligned)
{
    // Functional requests with distinct operands: each report must
    // carry its own product (the test_session.cc guarantee, lifted
    // to the cluster).
    Rng rng(402);
    std::vector<Matrix<float>> as, bs;
    for (int i = 0; i < 4; ++i) {
        as.push_back(randomSparseMatrix(48, 48, 0.5, rng));
        bs.push_back(randomSparseMatrix(48, 48, 0.5, rng));
    }
    ClusterOptions opts;
    opts.devices = {GpuConfig::v100(), GpuConfig::a100Like()};
    Cluster cluster(opts);
    std::vector<KernelRequest> requests;
    for (int i = 0; i < 4; ++i) {
        KernelRequest req = KernelRequest::gemm(as[i], bs[i]);
        req.method = Method::DualSparse;
        requests.push_back(req);
    }
    std::vector<KernelReport> reports =
        cluster.runBatch(std::move(requests));
    for (int i = 0; i < 4; ++i) {
        ASSERT_NE(reports[i].d, nullptr);
        EXPECT_LT(maxAbsDiff(*reports[i].d, refGemmFp16(as[i], bs[i])),
                  1e-5)
            << i;
    }
}

TEST(ClusterTest, EstimateCacheSeparatesDatatypesAndSpmmFormats)
{
    // Two requests that differ only in datatype, or only in a pinned
    // SpMM format, are different work. The estimate cache (and the
    // serving micro-batch, which keys on the same content digest)
    // must not hand one the other's value; the shard key stays
    // structural and keeps them together.
    const KernelRequest fp16 =
        KernelRequest::gemm(512, 512, 512, 0.7, 0.8)
            .withMethod(Method::DualSparse);
    const KernelRequest int8 =
        KernelRequest(fp16).withDataType(DataType::Int8);
    const KernelRequest wide =
        KernelRequest::spmm(4096, 64, 4096, 0.999)
            .withMethod(Method::DualSparse)
            .withSpmmFormat(SpmmFormat::Wide);
    const KernelRequest narrow =
        KernelRequest(wide).withSpmmFormat(SpmmFormat::Narrow);
    Cluster cluster;
    for (const auto &[first, twin] :
         {std::pair(fp16, int8), std::pair(wide, narrow)}) {
        const double first_us = cluster.estimateOn(0, first);
        Session fresh;
        const double twin_us = fresh.plan(twin)->estimatedTimeUs();
        EXPECT_NE(first_us, twin_us);
        EXPECT_DOUBLE_EQ(cluster.estimateOn(0, twin), twin_us);
        EXPECT_NE(requestContentDigest(first),
                  requestContentDigest(twin));
        EXPECT_EQ(requestShardKey(first), requestShardKey(twin));
    }
}

TEST(ClusterTest, ShardKeysArePinnedForEveryOperandForm)
{
    // StaticShard placement keys on requestShardKey, so its layout is
    // a contract: these values may only change on purpose. The key
    // covers operand forms and synthetic operating points, never
    // operand contents, so caller-owned profiles and encodings (which
    // the content digest cannot hash) still shard.
    Rng rng(7);
    const Matrix<float> a = randomSparseMatrix(64, 96, 0.7, rng);
    const Matrix<float> b = randomSparseMatrix(96, 32, 0.6, rng);
    const SparsityProfile pa = SparsityProfile::fromMatrixAWord(a, 32);
    const SparsityProfile pb = SparsityProfile::fromMatrixBWord(b, 32);
    const SparsityProfile pa8 = SparsityProfile::fromMatrixAWord(a, 8);
    const TwoLevelBitmapMatrix ea =
        TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
    const TwoLevelBitmapMatrix eb =
        TwoLevelBitmapMatrix::encode(b, 32, 32, Major::Row);
    ConvShape shape;
    shape.in_c = 8;
    shape.in_h = shape.in_w = 8;
    shape.out_c = 16;
    const Tensor4d input(1, 8, 8, 8);
    const Matrix<float> weights = randomSparseMatrix(16, 72, 0.5, rng);
    KernelRequest encoded = KernelRequest::gemm(64, 32, 96);
    encoded.a = ea;
    encoded.b = eb;

    const struct
    {
        const char *form;
        KernelRequest request;
        uint64_t shard_key;
        bool hashable;
    } cases[] = {
        {"gemm synthetic",
         KernelRequest::gemm(512, 256, 128, 0.7, 0.8)
             .withClusters(2.0, 4.0)
             .withMethod(Method::DualSparse),
         0x11efc218d035af5eull, true},
        {"gemm profile", KernelRequest::gemm(pa, pb),
         0x20d440999f937a70ull, false},
        {"gemm functional", KernelRequest::gemm(a, b),
         0x014423ea8d2b028bull, true},
        {"gemm pre-encoded", encoded, 0x22fe5d3699bedf88ull, false},
        {"spmm strip profile", KernelRequest::spmm(pa8, 32),
         0x0e885effd8191fb6ull, false},
        {"spmm synthetic", KernelRequest::spmm(1024, 32, 1024, 0.99),
         0x1f02d5d2dc06badaull, true},
        {"spmm functional", KernelRequest::spmm(a, b),
         0x6e63133a339147adull, true},
        {"conv synthetic",
         KernelRequest::conv(shape, 0.5, 0.3).withClusters(2.0, 4.0),
         0xfe3d395879a140b4ull, true},
        {"conv functional", KernelRequest::conv(input, weights, shape),
         0xdcfe6960d9e5c6c7ull, true},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(requestShardKey(c.request), c.shard_key) << c.form;
        EXPECT_EQ(requestContentDigest(c.request).has_value(),
                  c.hashable)
            << c.form;
    }
}

} // namespace
} // namespace dstc
