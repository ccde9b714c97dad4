/**
 * @file
 * Method::Hybrid tests: the density-partitioned composer must be
 * bitwise indistinguishable from the single backend it routes each
 * tile class to — degenerate uniform requests collapse to a pure
 * single-backend run (stats included), split requests reproduce each
 * class's row stripes exactly as the routed backend computes them on
 * the full request (row stripes depend only on their own A rows plus
 * the shared B), and everything is invariant to worker counts and
 * pinned-threshold edge cases.
 */
#include "core/hybrid.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/session.h"
#include "model/pruning.h"
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

/**
 * A striped A operand: even 32-row tile groups near-dense, odd
 * groups near-empty — the non-uniform checkpoint pattern the hybrid
 * partition exists for.
 */
Matrix<float>
stripedA(int m, int k, double dense_density, double sparse_density,
         Rng &rng)
{
    Matrix<float> a(m, k);
    for (int r = 0; r < m; ++r) {
        const double density =
            (r / 32) % 2 == 0 ? dense_density : sparse_density;
        for (int c = 0; c < k; ++c) {
            if (rng.bernoulli(density)) {
                const float v = rng.uniformFloat(-1.0f, 1.0f);
                a.at(r, c) = (v == 0.0f) ? 0.5f : v;
            }
        }
    }
    return a;
}

KernelRequest
hybridRequest(const Matrix<float> &a, const Matrix<float> &b,
              double threshold = -1.0)
{
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::Hybrid;
    req.hybrid_options.threshold = threshold;
    return req;
}

PlanContext
sessionContext(Session &session)
{
    PlanContext ctx;
    ctx.cfg = &session.config();
    ctx.cache = &session.encodingCache();
    ctx.registry = &session.registry();
    return ctx;
}

/** Rows [g*32, g*32+32) of the class's groups, compared bitwise
 *  between the hybrid output and a full-request single-backend
 *  output (row-stripe independence makes this exact). */
void
expectClassRowsMatch(const HybridClass &cls, const Matrix<float> &hyb,
                     const Matrix<float> &pure)
{
    for (int g : cls.groups) {
        const int r0 = g * 32;
        const int r1 = std::min(hyb.rows(), r0 + 32);
        for (int r = r0; r < r1; ++r)
            for (int c = 0; c < hyb.cols(); ++c)
                ASSERT_EQ(hyb.at(r, c), pure.at(r, c))
                    << "group " << g << " row " << r << " col " << c
                    << " (" << tokenOf(kMethods, cls.method) << ")";
    }
}

TEST(HybridTest, AllDenseDegeneratesToPureDense)
{
    Rng rng(7);
    Matrix<float> a = randomSparseMatrix(256, 128, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.0, rng);

    Session hybrid_session;
    const HybridSplit split = planHybridSplit(
        hybridRequest(a, b), sessionContext(hybrid_session));
    ASSERT_EQ(split.classes.size(), 1u);
    EXPECT_EQ(split.classes[0].method, Method::Dense);
    EXPECT_DOUBLE_EQ(split.threshold, -1.0);

    KernelReport hyb = hybrid_session.run(hybridRequest(a, b));
    EXPECT_EQ(hyb.method, Method::Hybrid);
    EXPECT_EQ(hyb.backend, "hybrid-partition");

    Session dense_session;
    KernelRequest pure = KernelRequest::gemm(a, b);
    pure.method = Method::Dense;
    KernelReport ref = dense_session.run(pure);

    expectStatsBitwiseEqual(hyb.stats, ref.stats, "all-dense");
    ASSERT_NE(hyb.d, nullptr);
    ASSERT_NE(ref.d, nullptr);
    EXPECT_TRUE(*hyb.d == *ref.d);
}

TEST(HybridTest, AllSparseDegeneratesToPureDualSparse)
{
    Rng rng(11);
    Matrix<float> a = randomSparseMatrix(512, 256, 0.9, rng);
    Matrix<float> b = randomSparseMatrix(256, 256, 0.9, rng);

    Session session;
    const HybridSplit split = planHybridSplit(
        hybridRequest(a, b), sessionContext(session));
    ASSERT_EQ(split.classes.size(), 1u);
    EXPECT_EQ(split.classes[0].method, Method::DualSparse);

    KernelReport hyb = session.run(hybridRequest(a, b));

    Session dual_session;
    KernelReport ref = testutil::spgemm(dual_session, a, b);

    expectStatsBitwiseEqual(hyb.stats, ref.stats, "all-sparse");
    ASSERT_NE(hyb.d, nullptr);
    EXPECT_TRUE(*hyb.d == *ref.d);
}

TEST(HybridTest, SingleTileMatrixIsOneClass)
{
    Rng rng(13);
    Matrix<float> a = randomSparseMatrix(16, 48, 0.5, rng);
    Matrix<float> b = randomSparseMatrix(48, 24, 0.5, rng);

    Session session;
    const HybridSplit split = planHybridSplit(
        hybridRequest(a, b), sessionContext(session));
    ASSERT_EQ(split.classes.size(), 1u);
    EXPECT_EQ(split.classes[0].groups, std::vector<int>{0});

    KernelReport hyb = session.run(hybridRequest(a, b));
    ASSERT_NE(hyb.d, nullptr);
    EXPECT_LT(maxAbsDiff(*hyb.d, refGemmFp16(a, b)), 1e-4);

    Session pure_session;
    KernelRequest pure = KernelRequest::gemm(a, b);
    pure.method = split.classes[0].method;
    KernelReport ref = pure_session.run(pure);
    expectStatsBitwiseEqual(hyb.stats, ref.stats, "single-tile");
    EXPECT_TRUE(*hyb.d == *ref.d);
}

TEST(HybridTest, PinnedThresholdSplitMatchesPerClassReferences)
{
    Rng rng(17);
    Matrix<float> a = stripedA(256, 128, 0.85, 0.05, rng);
    Matrix<float> b = randomSparseMatrix(128, 96, 0.5, rng);

    Session session;
    const KernelRequest req = hybridRequest(a, b, 0.5);
    const HybridSplit split =
        planHybridSplit(req, sessionContext(session));
    ASSERT_EQ(split.classes.size(), 2u);
    EXPECT_DOUBLE_EQ(split.threshold, 0.5);
    // Stripe layout: odd groups (near-empty) below the cut, even
    // groups (near-dense) at or above it.
    EXPECT_EQ(split.classes[0].groups,
              (std::vector<int>{1, 3, 5, 7}));
    EXPECT_EQ(split.classes[1].groups,
              (std::vector<int>{0, 2, 4, 6}));
    // The point of the composer: the two classes route differently.
    EXPECT_NE(split.classes[0].method, split.classes[1].method);

    KernelReport hyb = session.run(req);
    ASSERT_NE(hyb.d, nullptr);
    EXPECT_EQ(hyb.stats.name.rfind("hybrid[", 0), 0u)
        << hyb.stats.name;

    // Each class's row stripes must be bitwise what its routed
    // backend computes for the full request.
    for (const HybridClass &cls : split.classes) {
        Session pure_session;
        KernelRequest pure = KernelRequest::gemm(a, b);
        pure.method = cls.method;
        KernelReport ref = pure_session.run(pure);
        ASSERT_NE(ref.d, nullptr) << tokenOf(kMethods, cls.method);
        expectClassRowsMatch(cls, *hyb.d, *ref.d);
    }
}

TEST(HybridTest, PinnedThresholdEmptyClassCollapsesToOneClass)
{
    Rng rng(19);
    Matrix<float> a = stripedA(128, 64, 0.8, 0.1, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.4, rng);

    Session session;
    // Threshold 0: every group has density >= 0 (the low class is
    // empty). Threshold above 1: every group lands low.
    for (double t : {0.0, 1.5}) {
        const HybridSplit split = planHybridSplit(
            hybridRequest(a, b, t), sessionContext(session));
        ASSERT_EQ(split.classes.size(), 1u) << "threshold " << t;
        EXPECT_EQ(split.classes[0].groups.size(), 4u)
            << "threshold " << t;

        KernelReport hyb = session.run(hybridRequest(a, b, t));
        Session pure_session;
        KernelRequest pure = KernelRequest::gemm(a, b);
        pure.method = split.classes[0].method;
        KernelReport ref = pure_session.run(pure);
        expectStatsBitwiseEqual(hyb.stats, ref.stats,
                                "pinned-degenerate");
        ASSERT_NE(hyb.d, nullptr);
        EXPECT_TRUE(*hyb.d == *ref.d);
    }
}

TEST(HybridTest, ConformantBAdmitsAmpereRouting)
{
    Rng rng(23);
    Matrix<float> a = stripedA(256, 128, 0.9, 0.04, rng);
    Matrix<float> b =
        prune2of4(randomSparseMatrix(128, 96, 0.0, rng));
    ASSERT_TRUE(conformant2of4(b));

    Session session;
    const KernelRequest req = hybridRequest(a, b, 0.5);
    const HybridSplit split =
        planHybridSplit(req, sessionContext(session));
    ASSERT_EQ(split.classes.size(), 2u);
    // The 2:4 path dominates dense on the near-dense class once its
    // prune is the identity.
    EXPECT_EQ(split.classes[1].method, Method::AmpereSparse);

    KernelReport hyb = session.run(req);
    ASSERT_NE(hyb.d, nullptr);
    for (const HybridClass &cls : split.classes) {
        Session pure_session;
        KernelRequest pure = KernelRequest::gemm(a, b);
        pure.method = cls.method;
        KernelReport ref = pure_session.run(pure);
        ASSERT_NE(ref.d, nullptr);
        expectClassRowsMatch(cls, *hyb.d, *ref.d);
    }

    // Identity prune: the ampere-routed stripes equal the exact
    // FP16 product of the *unpruned* operands.
    EXPECT_LT(maxAbsDiff(*hyb.d, refGemmFp16(a, b)), 1e-4);

    // A non-conformant B keeps ampere out.
    Matrix<float> dense_b = randomSparseMatrix(128, 96, 0.0, rng);
    ASSERT_FALSE(conformant2of4(dense_b));
    const HybridSplit no_ampere =
        planHybridSplit(hybridRequest(a, dense_b, 0.5),
                        sessionContext(session));
    for (const HybridClass &cls : no_ampere.classes)
        EXPECT_NE(cls.method, Method::AmpereSparse);
}

TEST(HybridTest, WorkerCountInvariance)
{
    Rng rng(29);
    Matrix<float> a = stripedA(256, 128, 0.85, 0.05, rng);
    Matrix<float> b = randomSparseMatrix(128, 96, 0.5, rng);

    SessionOptions serial_opts;
    serial_opts.resources.compute_workers = 1;
    Session serial_session(serial_opts);
    KernelReport serial = serial_session.run(hybridRequest(a, b, 0.5));

    SessionOptions pooled_opts;
    pooled_opts.resources = {.compute_workers = 4, .encode_workers = 4};
    Session pooled_session(pooled_opts);
    KernelReport pooled = pooled_session.run(hybridRequest(a, b, 0.5));

    expectStatsBitwiseEqual(serial.stats, pooled.stats, "workers");
    ASSERT_NE(serial.d, nullptr);
    ASSERT_NE(pooled.d, nullptr);
    EXPECT_TRUE(*serial.d == *pooled.d);
}

TEST(HybridTest, SyntheticClusteredRequestSplitsDeterministically)
{
    KernelRequest req = KernelRequest::gemm(1024, 512, 512, 0.6, 0.5);
    req.method = Method::Hybrid;
    req.withClusters(8.0, 1.0);
    req.seed = 33;

    Session s1, s2;
    KernelReport r1 = s1.run(req);
    KernelReport r2 = s2.run(req);
    expectStatsBitwiseEqual(r1.stats, r2.stats, "synthetic");
    EXPECT_EQ(r1.stats.name, r2.stats.name);
    EXPECT_GT(r1.timeUs(), 0.0);

    const HybridSplit split =
        planHybridSplit(req, sessionContext(s1));
    EXPECT_GT(split.total_estimated_us, 0.0);
    // The split, whatever the cost model chose, is what ran.
    std::string expected = "hybrid[";
    for (size_t i = 0; i < split.classes.size(); ++i) {
        if (i)
            expected += '+';
        expected += tokenOf(kMethods, split.classes[i].method);
        expected += ':';
        expected +=
            std::to_string(split.classes[i].groups.size());
    }
    expected += ']';
    EXPECT_EQ(r1.stats.name, expected);
}

TEST(HybridTest, PreEncodedPairDelegatesToDualSparse)
{
    Rng rng(37);
    Matrix<float> a = randomSparseMatrix(128, 96, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(96, 64, 0.6, rng);
    TwoLevelBitmapMatrix enc_a =
        TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
    TwoLevelBitmapMatrix enc_b =
        TwoLevelBitmapMatrix::encode(b, 32, 32, Major::Row);

    Session hybrid_session;
    KernelRequest req;
    req.kind = KernelRequest::Kind::Gemm;
    req.method = Method::Hybrid;
    req.m = a.rows();
    req.n = b.cols();
    req.k = a.cols();
    req.a = enc_a;
    req.b = enc_b;
    KernelReport hyb = hybrid_session.run(req);
    EXPECT_EQ(hyb.method, Method::Hybrid);

    Session dual_session;
    KernelReport ref =
        testutil::spgemmEncoded(dual_session, enc_a, enc_b);
    expectStatsBitwiseEqual(hyb.stats, ref.stats, "pre-encoded");
    ASSERT_NE(hyb.d, nullptr);
    ASSERT_NE(ref.d, nullptr);
    EXPECT_TRUE(*hyb.d == *ref.d);
}

TEST(HybridTest, HybridSupportsFloatGemmAndSpmm)
{
    // Pins what HybridBackend::supports declares: floating-point
    // GEMM and SpMM. Which operand form pairs are admitted is the
    // registry's rule (KernelRegistryDeathTest covers the rejects).
    Session session;
    const Backend *hybrid = session.registry().find(Method::Hybrid);
    ASSERT_NE(hybrid, nullptr);
    EXPECT_TRUE(hybrid->supports(KernelRequest::gemm(64, 64, 64)));
    EXPECT_TRUE(
        hybrid->supports(KernelRequest::spmm(64, 32, 64, 0.9)));
    EXPECT_TRUE(
        hybrid->exact(KernelRequest::gemm(64, 64, 64, 0.5, 0.5)));

    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    EXPECT_FALSE(hybrid->supports(KernelRequest::conv(shape)));

    // Integer classes would quantize each operand slice with its own
    // scale, so the stitched output would match no single backend.
    for (DataType dtype : {DataType::Int8, DataType::Int4}) {
        KernelRequest gemm = KernelRequest::gemm(64, 64, 64);
        gemm.gemm_options.dtype = dtype;
        EXPECT_FALSE(hybrid->supports(gemm)) << nameOf(kDataTypes, dtype);
        KernelRequest spmm = KernelRequest::spmm(64, 32, 64, 0.9);
        spmm.gemm_options.dtype = dtype;
        EXPECT_FALSE(hybrid->supports(spmm)) << nameOf(kDataTypes, dtype);
    }

    Rng rng(79);
    const Matrix<float> m = randomSparseMatrix(64, 64, 0.8, rng);
    const TwoLevelBitmapMatrix a_enc =
        TwoLevelBitmapMatrix::encode(m, 32, 32, Major::Col);
    const TwoLevelBitmapMatrix b_enc =
        TwoLevelBitmapMatrix::encode(m, 32, 32, Major::Row);
    KernelRequest pair = KernelRequest::gemm(64, 64, 64);
    pair.a = a_enc;
    pair.b = b_enc;
    EXPECT_TRUE(hybrid->supports(pair));
    EXPECT_TRUE(session.registry().supports(
        KernelRequest(pair).withMethod(Method::Hybrid)));
}

} // namespace
} // namespace dstc
