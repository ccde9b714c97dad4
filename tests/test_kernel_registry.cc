#include "core/kernel_registry.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/session.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

class KernelRegistryTest : public ::testing::Test
{
  protected:
    KernelRequest
    convRequest() const
    {
        ConvShape shape;
        shape.in_c = 32;
        shape.in_h = shape.in_w = 14;
        shape.out_c = 32;
        KernelRequest req = KernelRequest::conv(shape, 0.7, 0.5);
        return req;
    }

    Session session_;
};

TEST_F(KernelRegistryTest, DefaultRegistryEnumeratesSixBackends)
{
    const KernelRegistry &registry = session_.registry();
    ASSERT_EQ(registry.backends().size(), 6u);

    std::set<Method> methods;
    std::set<std::string> names;
    for (const auto &backend : registry.backends()) {
        methods.insert(backend->method());
        names.insert(backend->name());
    }
    const std::set<Method> expected_methods = {
        Method::DualSparse,   Method::Dense,
        Method::ZhuSparse,    Method::AmpereSparse,
        Method::CusparseLike, Method::Hybrid};
    EXPECT_EQ(methods, expected_methods);
    const std::set<std::string> expected_names = {
        "dual-sparse",  "dense-cutlass", "zhu-vectorwise",
        "ampere-2to4",  "cusparse-like", "hybrid-partition"};
    EXPECT_EQ(names, expected_names);
}

TEST_F(KernelRegistryTest, FindByMethod)
{
    const KernelRegistry &registry = session_.registry();
    for (Method m : {Method::DualSparse, Method::Dense,
                     Method::ZhuSparse, Method::AmpereSparse,
                     Method::CusparseLike}) {
        const Backend *backend = registry.find(m);
        ASSERT_NE(backend, nullptr) << nameOf(kMethods, m);
        EXPECT_EQ(backend->method(), m);
    }
    EXPECT_EQ(registry.find(Method::Auto), nullptr);
}

TEST_F(KernelRegistryTest, SupportMatrix)
{
    const KernelRegistry &registry = session_.registry();
    KernelRequest gemm = KernelRequest::gemm(64, 64, 64);
    KernelRequest conv = convRequest();

    for (const auto &backend : registry.backends())
        EXPECT_TRUE(backend->supports(gemm)) << backend->name();

    // GEMM-only baselines reject convolution.
    EXPECT_FALSE(registry.find(Method::AmpereSparse)->supports(conv));
    EXPECT_FALSE(registry.find(Method::CusparseLike)->supports(conv));
    EXPECT_TRUE(registry.find(Method::DualSparse)->supports(conv));
    EXPECT_TRUE(registry.find(Method::Dense)->supports(conv));
    EXPECT_TRUE(registry.find(Method::ZhuSparse)->supports(conv));

    // The dual-side design has no explicit-im2col variant.
    conv.lowering = Lowering::Explicit;
    EXPECT_FALSE(registry.find(Method::DualSparse)->supports(conv));
    EXPECT_TRUE(registry.find(Method::Dense)->supports(conv));
}

TEST_F(KernelRegistryTest, GemmCandidatesExcludeLossyBackends)
{
    // Auto means "fastest way to compute this exact product", so the
    // structurally pruning baselines are never candidates for GEMM.
    KernelRequest gemm = KernelRequest::gemm(256, 256, 256, 0.9, 0.9);
    std::set<Method> methods;
    for (const Backend *backend :
         session_.registry().candidates(gemm))
        methods.insert(backend->method());
    const std::set<Method> expected = {
        Method::DualSparse, Method::Dense, Method::CusparseLike};
    EXPECT_EQ(methods, expected);
}

TEST_F(KernelRegistryTest, PreEncodedOperandsOnlyRouteToDualSparse)
{
    // Two-level encoded operands are only consumable by the
    // dual-sparse kernel; every other backend must reject them so
    // Auto can never pick a plan that would drop the operands.
    Matrix<float> dense(64, 64);
    TwoLevelBitmapMatrix enc =
        TwoLevelBitmapMatrix::encode(dense, 32, 32, Major::Col);
    TwoLevelBitmapMatrix enc_b =
        TwoLevelBitmapMatrix::encode(dense, 32, 32, Major::Row);
    KernelRequest req;
    req.kind = KernelRequest::Kind::Gemm;
    req.m = req.n = req.k = 64;
    req.a = enc;
    req.b = enc_b;
    for (const auto &backend : session_.registry().backends()) {
        // The hybrid composer also accepts the pair — it routes every
        // class of such a request to the dual-sparse kernel.
        const bool consumes =
            backend->method() == Method::DualSparse ||
            backend->method() == Method::Hybrid;
        EXPECT_EQ(backend->supports(req), consumes)
            << backend->name();
    }
}

TEST(KernelRegistryDeathTest, MismatchedPreEncodedTilingPanicsAtPlan)
{
    // A pair encoded at tile_k 16 under a request at the default
    // tile_k 32 has no kernel to run on: plan() refuses it for every
    // method that accepts pre-encoded operands, naming the tiling the
    // request expects, before any backend is planned or estimated.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Matrix<float> dense(64, 64);
    const TwoLevelBitmapMatrix a_enc =
        TwoLevelBitmapMatrix::encode(dense, 32, 16, Major::Col);
    const TwoLevelBitmapMatrix b_enc =
        TwoLevelBitmapMatrix::encode(dense, 16, 32, Major::Row);
    KernelRequest req = KernelRequest::gemm(64, 64, 64);
    req.a = a_enc;
    req.b = b_enc;
    for (Method method :
         {Method::DualSparse, Method::Auto, Method::Hybrid}) {
        req.method = method;
        EXPECT_DEATH(
            {
                Session session;
                session.plan(req);
            },
            "must be tiled 32x32 \\(A\\) and 32x32 \\(B\\).*"
            "kernel_registry\\.cc")
            << nameOf(kMethods, method);
    }
}

TEST(KernelRegistryDeathTest, RejectedOperandFormPairsPanicAtPlan)
{
    // operandsValid is the one rule on operand form pairs: every pair
    // it rejects makes the registry answer "unsupported" and panics
    // at plan, for Auto and for an explicit backend alike, before any
    // backend is planned.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(5);
    const Matrix<float> a = randomSparseMatrix(64, 64, 0.7, rng);
    const Matrix<float> b = randomSparseMatrix(64, 64, 0.6, rng);
    const SparsityProfile pa = SparsityProfile::fromMatrixAWord(a, 32);
    const SparsityProfile pb = SparsityProfile::fromMatrixBWord(b, 32);
    const TwoLevelBitmapMatrix ea =
        TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
    const TwoLevelBitmapMatrix eb =
        TwoLevelBitmapMatrix::encode(b, 32, 32, Major::Row);
    ConvShape shape;
    shape.in_c = 8;
    shape.in_h = shape.in_w = 8;
    shape.out_c = 64;
    const auto with = [](KernelRequest req, Operand left, Operand right) {
        req.a = left;
        req.b = right;
        return req;
    };
    const KernelRequest gemm = KernelRequest::gemm(64, 64, 64);
    const KernelRequest spmm = KernelRequest::spmm(64, 64, 64, 0.9);
    const KernelRequest conv = KernelRequest::conv(shape);
    const struct
    {
        const char *pair;
        KernelRequest request;
    } cases[] = {
        {"gemm: concrete A, profiled B", with(gemm, a, pb)},
        {"gemm: pre-encoded A, synthetic B", with(gemm, ea, Operand())},
        {"gemm: profiled A, pre-encoded B", with(gemm, pa, eb)},
        {"spmm: profiled B", with(spmm, Operand(), pb)},
        {"spmm: pre-encoded A", with(spmm, ea, Operand())},
        {"spmm: tile-32 A profile", KernelRequest::spmm(pa, 64)},
        {"conv: matrix where the tensor belongs", with(conv, a, b)},
        {"conv: profile where the tensor belongs", with(conv, pa, b)},
    };
    for (const auto &c : cases) {
        for (Method method : {Method::Auto, Method::DualSparse}) {
            const KernelRequest req =
                KernelRequest(c.request).withMethod(method);
            Session session;
            EXPECT_FALSE(session.registry().supports(req))
                << c.pair << " / " << tokenOf(kMethods, method);
            EXPECT_DEATH(session.plan(req),
                         "operandsValid\\(request\\).*"
                         "kernel_registry\\.cc")
                << c.pair << " / " << tokenOf(kMethods, method);
        }
    }
}

TEST_F(KernelRegistryTest, ExplicitConvAutoExcludesForcedPruneTiming)
{
    // The explicit Single Sparse strategy's timing presumes the
    // fixed 75% weight prune, so Auto (exact dispatch) must not
    // consider it; only the dense backend remains for explicit
    // lowering.
    KernelRequest req = convRequest();
    req.lowering = Lowering::Explicit;
    std::set<Method> methods;
    for (const Backend *backend : session_.registry().candidates(req))
        methods.insert(backend->method());
    EXPECT_EQ(methods, std::set<Method>{Method::Dense});

    // Implicit lowering keeps Single Sparse (it times the weights'
    // actual sparsity) alongside dual and dense.
    req.lowering = Lowering::Implicit;
    methods.clear();
    for (const Backend *backend : session_.registry().candidates(req))
        methods.insert(backend->method());
    const std::set<Method> implicit_expected = {
        Method::DualSparse, Method::Dense, Method::ZhuSparse};
    EXPECT_EQ(methods, implicit_expected);
}

TEST_F(KernelRegistryTest, AutoPicksProfiledWinner)
{
    // Plan each candidate explicitly and check Auto agrees with the
    // fastest estimate.
    KernelRequest req = KernelRequest::gemm(1024, 1024, 1024, 0.7,
                                            0.7);
    double best_us = 0.0;
    Method best_method = Method::Auto;
    for (const Backend *backend : session_.registry().candidates(req)) {
        KernelRequest explicit_req = req;
        explicit_req.method = backend->method();
        const double us = session_.run(explicit_req).timeUs();
        if (best_method == Method::Auto || us < best_us) {
            best_us = us;
            best_method = backend->method();
        }
    }

    req.method = Method::Auto;
    KernelReport report = session_.run(req);
    EXPECT_EQ(report.method, best_method);
    EXPECT_DOUBLE_EQ(report.timeUs(), best_us);
}

TEST_F(KernelRegistryTest, AutoPrefersDualSparseAtHighSparsity)
{
    // The Fig. 21 region where the dual-side design dominates all
    // exact baselines.
    KernelRequest req = KernelRequest::gemm(1024, 1024, 1024, 0.7,
                                            0.7);
    req.method = Method::Auto;
    KernelReport report = session_.run(req);
    EXPECT_EQ(report.method, Method::DualSparse);
    EXPECT_EQ(report.backend, "dual-sparse");
    EXPECT_GT(report.planned_us, 0.0);
}

TEST_F(KernelRegistryTest, AutoPrefersDenseWhenOperandsAreDense)
{
    KernelRequest req = KernelRequest::gemm(1024, 1024, 1024);
    req.method = Method::Auto;
    KernelReport report = session_.run(req);
    EXPECT_EQ(report.method, Method::Dense);
}

TEST_F(KernelRegistryTest, AutoDispatchesConvRequests)
{
    KernelRequest req = convRequest();
    req.method = Method::Auto;
    KernelReport report = session_.run(req);
    EXPECT_GT(report.timeUs(), 0.0);
    // All conv strategies compute the same convolution, so lossy
    // backends stay in the conv candidate set.
    std::set<Method> allowed = {Method::DualSparse, Method::Dense,
                                Method::ZhuSparse};
    EXPECT_TRUE(allowed.count(report.method));
}

TEST_F(KernelRegistryTest, AutoFunctionalGemmMatchesReference)
{
    Rng rng(31);
    Matrix<float> a = randomSparseMatrix(96, 96, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(96, 96, 0.6, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::Auto;
    KernelReport report = session_.run(req);
    ASSERT_NE(report.d, nullptr);
    // Whatever backend won, the product must be the exact one.
    EXPECT_LT(maxAbsDiff(*report.d, refGemmFp16(a, b)), 1e-4);
    EXPECT_NE(report.method, Method::ZhuSparse);
    EXPECT_NE(report.method, Method::AmpereSparse);
}

TEST_F(KernelRegistryTest, RegisteringSameMethodReplaces)
{
    KernelRegistry registry = KernelRegistry::withDefaultBackends();
    const Backend *before = registry.find(Method::Dense);
    registry.registerBackend(makeDenseBackend());
    EXPECT_EQ(registry.backends().size(), 6u);
    EXPECT_NE(registry.find(Method::Dense), before);
}

TEST_F(KernelRegistryTest, ExplicitMethodReportsItsBackend)
{
    KernelRequest req = KernelRequest::gemm(256, 256, 256, 0.5, 0.9);
    req.method = Method::AmpereSparse;
    KernelReport report = session_.run(req);
    EXPECT_EQ(report.method, Method::AmpereSparse);
    EXPECT_EQ(report.backend, "ampere-2to4");
    EXPECT_GT(report.timeUs(), 0.0);
}

} // namespace
} // namespace dstc
