#include "core/encoding_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/backend.h"
#include "core/session.h"
#include "sparse/csr.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(CacheKeyTest, DistinctInputsDistinctKeys)
{
    EXPECT_NE(CacheKey("a").value(), CacheKey("b").value());
    EXPECT_NE(CacheKey("k").i64(1).value(),
              CacheKey("k").i64(2).value());
    EXPECT_NE(CacheKey("k").f64(0.5).value(),
              CacheKey("k").f64(0.25).value());
    // Tag/field boundaries are terminated: "ab"+"c" != "a"+"bc".
    EXPECT_NE(CacheKey("ab").str("c").value(),
              CacheKey("a").str("bc").value());

    Matrix<float> m1(4, 4), m2(4, 4);
    m2.at(3, 3) = 1.0f;
    EXPECT_NE(CacheKey("m").matrix(m1).value(),
              CacheKey("m").matrix(m2).value());
    EXPECT_EQ(CacheKey("m").matrix(m1).value(),
              CacheKey("m").matrix(m1).value());
}

TEST(CacheKeyTest, PayloadDigestSeesEveryElement)
{
    // 37 x 41 = 1517 floats: 189 full 32-byte steps run every lane,
    // and the one-float remainder runs the zero-padded tail step.
    Rng rng(4242);
    Matrix<float> m = randomSparseMatrix(37, 41, 0.5, rng);
    const uint64_t base = CacheKey("m").matrix(m).value();
    std::set<uint64_t> keys = {base};
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c) {
            // A sign flip: x -> -x, and 0.0 -> -0.0 on the zeros.
            const float x = m.at(r, c);
            m.at(r, c) = -x;
            keys.insert(CacheKey("m").matrix(m).value());
            m.at(r, c) = x;
        }
    EXPECT_EQ(keys.size(), m.size() + 1);
    EXPECT_EQ(CacheKey("m").matrix(m).value(), base);

    // +0.0 and -0.0 are both zeros to the encoders, but distinct
    // payloads to the digest.
    Matrix<float> pos(37, 41), neg(37, 41);
    neg.at(36, 40) = -0.0f;
    EXPECT_NE(CacheKey("m").matrix(pos).value(),
              CacheKey("m").matrix(neg).value());

    // The same bytes under the transposed shape.
    Matrix<float> t(41, 37);
    t.data() = m.data();
    EXPECT_NE(CacheKey("m").matrix(t).value(), base);

    // A trailing zero is not the tail step's padding.
    const float v[4] = {1.0f, 2.0f, 3.0f, 0.0f};
    EXPECT_NE(CacheKey("p").payload(v, 3).value(),
              CacheKey("p").payload(v, 4).value());
}

/** @p n floats drawn from zeros of both signs, NaN, infinities,
 *  denormals and ordinary values. */
std::vector<float>
specialValues(size_t n, Rng &rng)
{
    const float specials[] = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        1.5f,
        -0.25f};
    std::vector<float> v(n);
    for (float &x : v)
        x = specials[rng.uniformInt(std::size(specials))];
    return v;
}

TEST(OperandDigestsTest, NnzMatchesWordNnz)
{
    Rng rng(2468);
    const auto check = [](const Matrix<float> &m) {
        const int64_t want = wordNnz(m.data().data(), m.size());
        OperandDigests memo;
        EXPECT_EQ(memo.a(m).nnz, want) << m.rows() << "x" << m.cols();
        EXPECT_EQ(memo.b(m).nnz, want) << m.rows() << "x" << m.cols();
        EXPECT_EQ(memo.a(m).digest,
                  CacheKey("operand-bytes").matrix(m).value());
    };
    // Every length through two full steps and into a third, so each
    // remainder the tail step can see is covered.
    for (int n = 0; n <= 67; ++n) {
        Matrix<float> m(1, n);
        m.data() = specialValues(static_cast<size_t>(n), rng);
        check(m);
    }
    Matrix<float> big(301, 317);
    big.data() = specialValues(big.size(), rng);
    check(big);
}

TEST(OperandDigestsDeathTest, SlotReusedForAnotherMatrixPanics)
{
    Matrix<float> m1(4, 4), m2(4, 4);
    OperandDigests memo;
    memo.a(m1);
    memo.b(m2);
    EXPECT_DEATH(memo.a(m2), "slot reused for a different matrix");
}

TEST(EncodingCacheTest, BuildsOnceThenHits)
{
    EncodingCache cache;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        return 42;
    };

    bool hit = true;
    auto first = cache.getOrBuild<int>(1, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(*first, 42);
    EXPECT_EQ(builds, 1);

    auto second = cache.getOrBuild<int>(1, build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get()); // same shared object

    EXPECT_EQ(cache.counters().hits, 1);
    EXPECT_EQ(cache.counters().misses, 1);
    EXPECT_EQ(cache.entries(), 1u);

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().hits, 0);
    cache.getOrBuild<int>(1, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds, 2);
}

TEST(EncodingCacheTest, CapacityBoundsEntriesLru)
{
    EncodingCache cache(4);
    EXPECT_EQ(cache.capacity(), 4u);
    for (uint64_t k = 0; k < 10; ++k)
        cache.getOrBuild<uint64_t>(k, [k] { return k; });
    EXPECT_LE(cache.entries(), 4u);
    EXPECT_EQ(cache.counters().evictions, 6);

    // Least-recently-used entries were evicted and rebuild; newest
    // still hit.
    bool hit = true;
    cache.getOrBuild<uint64_t>(0, [] { return uint64_t{0}; }, &hit);
    EXPECT_FALSE(hit);
    cache.getOrBuild<uint64_t>(9, [] { return uint64_t{9}; }, &hit);
    EXPECT_TRUE(hit);
}

TEST(EncodingCacheTest, HitsRefreshLruRecency)
{
    EncodingCache cache(3);
    for (uint64_t k = 1; k <= 3; ++k)
        cache.getOrBuild<uint64_t>(k, [k] { return k; });

    // Touch the oldest entry, then insert two new keys: the
    // refreshed entry survives while the untouched ones evict.
    cache.getOrBuild<uint64_t>(1, [] { return uint64_t{1}; });
    cache.getOrBuild<uint64_t>(4, [] { return uint64_t{4}; });
    cache.getOrBuild<uint64_t>(5, [] { return uint64_t{5}; });

    bool hit = false;
    cache.getOrBuild<uint64_t>(1, [] { return uint64_t{1}; }, &hit);
    EXPECT_TRUE(hit) << "refreshed entry was evicted";
    cache.getOrBuild<uint64_t>(2, [] { return uint64_t{2}; }, &hit);
    EXPECT_FALSE(hit) << "stale entry should have been evicted";
}

TEST(EncodingCacheTest, ByteBoundEvictsUntilUnderBudget)
{
    // Values report their footprint via encodedBytes(); CSR matrices
    // do. Bound the cache to ~2.5 of them.
    Rng rng(23);
    Matrix<float> dense = randomSparseMatrix(64, 64, 0.5, rng);
    const size_t one = CsrMatrix::encode(dense).encodedBytes();
    EncodingCache cache(1024, one * 5 / 2);

    for (uint64_t k = 0; k < 4; ++k)
        cache.getOrBuild<CsrMatrix>(
            k, [&] { return CsrMatrix::encode(dense); });
    EXPECT_LE(cache.totalBytes(), one * 5 / 2);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.counters().evictions, 2);

    // The newest entries are the survivors.
    bool hit = false;
    cache.getOrBuild<CsrMatrix>(
        3, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_TRUE(hit);
    cache.getOrBuild<CsrMatrix>(
        0, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_FALSE(hit);
}

TEST(EncodingCacheTest, OversizedSingleValueIsStillCached)
{
    // A value bigger than the whole byte budget caches anyway (the
    // bound sheds history, it never refuses work).
    Rng rng(24);
    Matrix<float> dense = randomSparseMatrix(64, 64, 0.2, rng);
    EncodingCache cache(1024, 16);
    bool hit = true;
    cache.getOrBuild<CsrMatrix>(
        7, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_FALSE(hit);
    cache.getOrBuild<CsrMatrix>(
        7, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(EncodingCacheTest, SessionHonorsByteBound)
{
    SessionOptions options;
    options.cache_capacity_bytes = 1; // evict everything evictable
    Session session(options);
    EXPECT_EQ(session.encodingCache().capacityBytes(), 1u);

    Rng rng(25);
    Matrix<float> a = randomSparseMatrix(64, 64, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.7, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::DualSparse;
    session.run(req);
    // With a 1-byte budget at most the newest (uncharged/last) entry
    // survives per insertion round.
    EXPECT_LE(session.encodingCache().entries(), 2u);
    EXPECT_GT(session.encodingCache().counters().evictions, 0);
}

TEST(EncodingCacheTest, ConcurrentLookupsBuildOnce)
{
    EncodingCache cache;
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const int>> results(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] = cache.getOrBuild<int>(7, [&builds] {
                ++builds;
                return 99;
            });
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto &r : results)
        EXPECT_EQ(*r, 99);
}

TEST(EncodingCacheTest, RepeatedSyntheticRequestHitsCache)
{
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.7, 0.8);
    req.method = Method::DualSparse;

    KernelReport first = session.run(req);
    EXPECT_FALSE(first.encode_cache_hit);
    KernelReport second = session.run(req);
    EXPECT_TRUE(second.encode_cache_hit);
    // The cached profiles are the same objects, so the stats match
    // exactly.
    EXPECT_DOUBLE_EQ(first.timeUs(), second.timeUs());
    EXPECT_EQ(first.stats.mix.ohmma_issued,
              second.stats.mix.ohmma_issued);
    EXPECT_GE(session.encodingCache().counters().hits, 1);
}

TEST(EncodingCacheTest, DifferentOperatingPointsMissCache)
{
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.7, 0.8);
    req.method = Method::DualSparse;
    session.run(req);

    KernelRequest other = req;
    other.seed = 2;
    EXPECT_FALSE(session.run(other).encode_cache_hit);
    other = req;
    other.b = Operand::Synthetic{0.9};
    EXPECT_FALSE(session.run(other).encode_cache_hit);
}

TEST(EncodingCacheTest, FunctionalOperandEncodingsAreReused)
{
    Session session;
    Rng rng(17);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.7, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::DualSparse;

    KernelReport first = session.run(req);
    KernelReport second = session.run(req);
    EXPECT_FALSE(first.encode_cache_hit);
    EXPECT_TRUE(second.encode_cache_hit);
    EXPECT_DOUBLE_EQ(first.timeUs(), second.timeUs());
    EXPECT_LT(maxAbsDiff(*second.d, refGemmFp16(a, b)), 1e-4);

    // The same operand content in a *different* Matrix object also
    // hits: keys are content hashes, not pointers.
    Matrix<float> a_copy = a;
    Matrix<float> b_copy = b;
    KernelRequest copy_req = KernelRequest::gemm(a_copy, b_copy);
    copy_req.method = Method::DualSparse;
    EXPECT_TRUE(session.run(copy_req).encode_cache_hit);
}

TEST(EncodingCacheTest, ConvEncodingReusedAcrossRepeatedLayers)
{
    Session session;
    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    KernelRequest req = KernelRequest::conv(shape, 0.8, 0.6);
    req.method = Method::DualSparse;

    EXPECT_FALSE(session.run(req).encode_cache_hit);
    EXPECT_TRUE(session.run(req).encode_cache_hit);

    // Same shape under a different strategy encodes separately.
    KernelRequest dense = req;
    dense.method = Method::Dense;
    EXPECT_FALSE(session.run(dense).encode_cache_hit);
}

} // namespace
} // namespace dstc
