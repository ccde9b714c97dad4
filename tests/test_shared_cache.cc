/**
 * @file
 * Shared-cache Session tests: multiple Sessions over different
 * GpuConfigs sharing one EncodingCache — the mode a Cluster builds
 * its per-device Sessions in. Encodings must dedup across devices,
 * config-dependent keys must never collide across configs, the
 * LRU bound must hold under concurrent batches, and each
 * Session must count its own hit rate.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/session.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

/** Synthetic timing requests over a few repeated operating points. */
std::vector<KernelRequest>
repeatedPoints()
{
    std::vector<KernelRequest> requests;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t seed : {1, 2, 3}) {
            KernelRequest req =
                KernelRequest::gemm(256, 256, 256, 0.7, 0.9);
            req.method = Method::DualSparse;
            req.seed = seed;
            requests.push_back(req);
        }
    }
    return requests;
}

TEST(SharedCacheTest, ConcurrentSessionsShareEncodingsAndStayExact)
{
    // Two Sessions, two configs, one cache; both batch the same
    // requests concurrently, from two threads on the shared pool.
    // Results must be bitwise identical to private-cache solo
    // Sessions of the same configs, and the shared cache must have
    // built each encoding once.
    EncodingCache cache;
    SessionOptions v100_opts;
    v100_opts.shared_cache = &cache;
    SessionOptions future_opts = v100_opts;
    future_opts.config = GpuConfig::futureGpu();
    Session v100(v100_opts);
    Session future(future_opts);

    std::vector<KernelReport> future_reports;
    std::thread other(
        [&] { future_reports = future.runBatch(repeatedPoints()); });
    const std::vector<KernelReport> v100_reports =
        v100.runBatch(repeatedPoints());
    other.join();

    Session v100_solo;
    Session future_solo(GpuConfig::futureGpu());
    std::vector<KernelRequest> requests = repeatedPoints();
    for (size_t i = 0; i < requests.size(); ++i) {
        KernelReport shared_report = v100_reports[i];
        KernelReport solo_report = v100_solo.run(requests[i]);
        EXPECT_DOUBLE_EQ(shared_report.stats.timeUs(),
                         solo_report.stats.timeUs())
            << "v100 req " << i;
        shared_report = future_reports[i];
        solo_report = future_solo.run(requests[i]);
        EXPECT_DOUBLE_EQ(shared_report.stats.timeUs(),
                         solo_report.stats.timeUs())
            << "future req " << i;
    }

    // 3 distinct operating points; profile synthesis is config-
    // independent, so 18 requests -> 3 profile builds, rest hits.
    EncodingCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.misses, 3);
    EXPECT_EQ(counters.hits, 15);

    // Per-device hit accounting: both sessions ran 9 requests, and
    // between them 15 of the 18 were cache-served.
    Session::RequestCounters v100_counters = v100.requestCounters();
    Session::RequestCounters future_counters =
        future.requestCounters();
    EXPECT_EQ(v100_counters.requests, 9);
    EXPECT_EQ(future_counters.requests, 9);
    EXPECT_EQ(v100_counters.encode_cache_hits +
                  future_counters.encode_cache_hits,
              15);
    // Each session repeated its own points twice after first sight,
    // so each saw at least 6 hits itself.
    EXPECT_GE(v100_counters.encode_cache_hits, 6);
    EXPECT_GE(future_counters.encode_cache_hits, 6);
}

TEST(SharedCacheTest, NoCrossConfigKeyCollisions)
{
    // CacheKey::gpuConfig must separate configs: identical payload,
    // different machines, different digests (and v100() must equal
    // itself field for field).
    KernelRequest req = KernelRequest::gemm(128, 128, 128, 0.5, 0.5);
    const uint64_t digest = requestShardKey(req);
    const uint64_t v100_key = CacheKey("probe")
                                  .u64(digest)
                                  .gpuConfig(GpuConfig::v100())
                                  .value();
    const uint64_t v100_again = CacheKey("probe")
                                    .u64(digest)
                                    .gpuConfig(GpuConfig::v100())
                                    .value();
    const uint64_t a100_key = CacheKey("probe")
                                  .u64(digest)
                                  .gpuConfig(GpuConfig::a100Like())
                                  .value();
    const uint64_t future_key = CacheKey("probe")
                                    .u64(digest)
                                    .gpuConfig(GpuConfig::futureGpu())
                                    .value();
    EXPECT_EQ(v100_key, v100_again);
    EXPECT_NE(v100_key, a100_key);
    EXPECT_NE(v100_key, future_key);
    EXPECT_NE(a100_key, future_key);

    // End to end: the same request through two shared-cache Sessions
    // of different configs must time differently — config-correct
    // results prove no config-dependent value was reused across
    // configs.
    EncodingCache cache;
    SessionOptions opts;
    opts.shared_cache = &cache;
    Session v100(opts);
    opts.config = GpuConfig::futureGpu();
    Session future(opts);
    KernelRequest timing =
        KernelRequest::gemm(1024, 1024, 1024, 0.8, 0.8);
    timing.method = Method::DualSparse;
    const double v100_us = v100.run(timing).stats.timeUs();
    const double future_us = future.run(timing).stats.timeUs();
    EXPECT_GT(v100_us, future_us);
    // ... while the (config-independent) profile pair was shared:
    // one miss, one hit across the two sessions.
    EXPECT_EQ(cache.counters().misses, 1);
    EXPECT_EQ(cache.counters().hits, 1);
}

TEST(SharedCacheTest, LruBoundHoldsUnderConcurrentBatches)
{
    // A deliberately tiny shared cache under two concurrent batches:
    // the entry bound must hold once the batches drain, and
    // evictions must be counted.
    EncodingCache cache(4);
    SessionOptions opts;
    opts.shared_cache = &cache;
    Session a(opts);
    opts.config = GpuConfig::a100Like();
    Session b(opts);

    std::vector<KernelRequest> requests;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        KernelRequest req =
            KernelRequest::gemm(512, 512, 512, 0.6, 0.8);
        req.method = Method::DualSparse;
        req.seed = seed;
        requests.push_back(req);
    }
    std::thread other([&] { b.runBatch(requests); });
    a.runBatch(requests);
    other.join();

    EXPECT_LE(cache.entries(), 4u);
    EXPECT_GT(cache.counters().evictions, 0);
    EXPECT_EQ(a.requestCounters().requests, 12);
    EXPECT_EQ(b.requestCounters().requests, 12);
}

} // namespace
} // namespace dstc
