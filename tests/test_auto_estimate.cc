/**
 * @file
 * Method::Auto estimate-vs-actual tests. Every plan reports one
 * KernelStats, memoized: Auto ranks candidates by its time and
 * execute() reports it, so for every plan but two the estimate equals
 * execution by construction. The two documented exceptions are the
 * cuSPARSE-like concrete GEMM, which ranks by an expected-value model
 * but executes real CSR products, and the hybrid, which ranks by its
 * merged split objective. These tests pin the zero gaps across
 * backends, operand forms and the sparsity grid, and assert the
 * cuSPARSE-like gap never misranks the candidates at the current
 * backend crossovers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/cusparse_like.h"
#include "common/rng.h"
#include "core/session.h"
#include "gemm/sparsity_profile.h"
#include "model/pruning.h"
#include "model/sparsity_gen.h"
#include "sparse/mtx_io.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

/** The functional request of one (a_sparsity, b_sparsity) point. */
KernelRequest
pointRequest(const Matrix<float> &a, const Matrix<float> &b,
             Method method)
{
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = method;
    req.gemm_options.functional = false; // stats are what we compare
    return req;
}

/** Field-by-field KernelStats equality, name included, so a
 *  mismatch names the field. */
void
expectIdenticalStats(const KernelStats &got, const KernelStats &want,
                     const std::string &context)
{
    EXPECT_EQ(got.name, want.name) << context;
    EXPECT_EQ(got.mix.hmma, want.mix.hmma) << context;
    EXPECT_EQ(got.mix.ohmma_issued, want.mix.ohmma_issued) << context;
    EXPECT_EQ(got.mix.ohmma_skipped, want.mix.ohmma_skipped) << context;
    EXPECT_EQ(got.mix.bohmma, want.mix.bohmma) << context;
    EXPECT_EQ(got.mix.popc, want.mix.popc) << context;
    EXPECT_EQ(got.warp_tiles, want.warp_tiles) << context;
    EXPECT_EQ(got.warp_tiles_skipped, want.warp_tiles_skipped)
        << context;
    EXPECT_EQ(got.merge_cycles, want.merge_cycles) << context;
    EXPECT_EQ(got.compute_us, want.compute_us) << context;
    EXPECT_EQ(got.memory_us, want.memory_us) << context;
    EXPECT_EQ(got.dram_bytes, want.dram_bytes) << context;
    EXPECT_EQ(got.launch_us, want.launch_us) << context;
    EXPECT_EQ(got.bound, want.bound) << context;
}

/** The two functional 3x3 convs of the estimate tests, stride 1 and
 *  stride 2: a ReLU'd input and magnitude-pruned weights at
 *  ResNet-like sparsities. */
struct FunctionalConv
{
    std::string label;
    ConvShape shape;
    Tensor4d input;
    Matrix<float> weights;

    KernelRequest
    request() const
    {
        return KernelRequest::conv(input, weights, shape);
    }
};

std::vector<FunctionalConv>
functionalConvs(Rng &rng)
{
    std::vector<FunctionalConv> convs;
    for (int stride : {1, 2}) {
        FunctionalConv &c = convs.emplace_back();
        c.label = "functional conv, stride " + std::to_string(stride);
        c.shape.in_c = 32;
        c.shape.in_h = c.shape.in_w = 14 * stride;
        c.shape.out_c = 64;
        c.shape.stride = stride;
        c.input = reluActivationTensor(1, c.shape.in_c, c.shape.in_h,
                                       c.shape.in_w, 0.5, rng);
        c.weights = magnitudePrune(
            randomSparseMatrix(c.shape.out_c,
                               static_cast<int>(c.shape.loweredCols()),
                               0.0, rng),
            0.8);
    }
    return convs;
}

TEST(AutoEstimateTest, EstimateIsRecordedInTheReport)
{
    // Auto dispatch computes the winning plan's estimate before
    // executing; the report must carry it (planned_us) so serving
    // layers can audit scheduler decisions after the fact.
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.7, 0.9);
    req.method = Method::Auto;
    KernelReport report = session.run(req);
    EXPECT_GT(report.planned_us, 0.0);
    EXPECT_NE(report.method, Method::Auto);

    // For the analytic timing paths the estimate *is* the run.
    EXPECT_DOUBLE_EQ(report.planned_us, report.timeUs());
}

TEST(AutoEstimateTest, FunctionalDualSparseGapAcrossSparsityGrid)
{
    // Quantify the profile-estimate vs bitmap-actual gap of the
    // functional dual-sparse path over the sparsity grid. The
    // outer-product datapath computes every (a-nonzero x b-nonzero)
    // pair of a k-line, so the instruction mix is a pure function of
    // the per-line popcounts — which the extracted profiles carry
    // exactly. The default dense write-back therefore has *zero*
    // gap: the plan-stage estimate is exact, and Auto's ranking of
    // functional dual-sparse requests is as trustworthy as its
    // analytic ones.
    Session session;
    Rng rng(501);
    for (double sa : {0.0, 0.5, 0.8, 0.95}) {
        for (double sb : {0.5, 0.8, 0.9, 0.99}) {
            Matrix<float> a = randomSparseMatrix(256, 256, sa, rng);
            Matrix<float> b = randomSparseMatrix(256, 256, sb, rng);
            KernelRequest req =
                pointRequest(a, b, Method::DualSparse);
            auto plan = session.plan(req);
            const double estimate = plan->estimatedTimeUs();
            KernelReport report = plan->execute();
            const double actual = report.timeUs();
            ASSERT_GT(actual, 0.0);
            const double gap =
                std::fabs(estimate - actual) / actual;
            EXPECT_LT(gap, 1e-9)
                << "a_sp=" << sa << " b_sp=" << sb << " estimate="
                << estimate << " actual=" << actual;
            // The recorded planned_us is the ranking estimate.
            EXPECT_DOUBLE_EQ(report.planned_us, estimate);
        }
    }
}

TEST(AutoEstimateTest, SparseOutputEstimateStaysExactToo)
{
    // sparse_output engages the one statistical term — the
    // output-nnz model sizing the bitmap-encoded write-back — but
    // execution and estimation deliberately share that model (both
    // derive p_cell_zero from the same per-line popcounts), so even
    // here the plan-stage estimate must reproduce the actual stats.
    // If either side ever switches to real product density, this
    // pins the moment the gap opens.
    Session session;
    Rng rng(503);
    for (double sp : {0.9, 0.95, 0.99}) {
        Matrix<float> a = randomSparseMatrix(256, 256, sp, rng);
        Matrix<float> b = randomSparseMatrix(256, 256, sp, rng);
        KernelRequest req = pointRequest(a, b, Method::DualSparse);
        req.gemm_options.sparse_output = true;
        auto plan = session.plan(req);
        const double estimate = plan->estimatedTimeUs();
        const double actual = plan->execute().timeUs();
        ASSERT_GT(actual, 0.0);
        EXPECT_LT(std::fabs(estimate - actual) / actual, 1e-9)
            << "sparsity=" << sp << " estimate=" << estimate
            << " actual=" << actual;
    }
}

TEST(AutoEstimateTest, PreEncodedEstimateIsExactWithoutRunning)
{
    // Pre-encoded requests estimate from profiles read off the
    // encodings (SparsityProfile::fromEncodedA/B) — the derived
    // counts are exact, so the estimate equals the executed stats,
    // and cost-ranking (Auto, cluster placement) never has to run
    // the kernel to price one.
    Session session;
    Rng rng(504);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.8, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.9, rng);
    SpGemmOptions opts;
    opts.functional = false;
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);
    KernelRequest req;
    req.kind = KernelRequest::Kind::Gemm;
    req.method = Method::DualSparse;
    req.m = a_enc.rows();
    req.n = b_enc.cols();
    req.k = a_enc.cols();
    req.a = a_enc;
    req.b = b_enc;
    req.gemm_options = opts;
    auto plan = session.plan(req);
    const double estimate = plan->estimatedTimeUs();
    const double actual = plan->execute().timeUs();
    ASSERT_GT(actual, 0.0);
    EXPECT_LT(std::fabs(estimate - actual) / actual, 1e-9)
        << "estimate=" << estimate << " actual=" << actual;
}

TEST(AutoEstimateTest, EveryBackendEstimateEqualsExecution)
{
    // Auto ranks candidates, and cluster placement prices requests,
    // by plan-stage estimates. Every default backend, on every
    // request flavor it supports, must estimate exactly the time it
    // then executes, and must report the same full stats whether or
    // not the run computes values and whether or not an estimate came
    // first. One check is left out on purpose: on a cuSPARSE-like
    // concrete GEMM the estimate is the expected-value model at the
    // operands' densities, while execution counts the real CSR
    // products. The gap is by design; NoMisrankingAtBackendCrossovers
    // bounds its effect.
    Session session;
    Rng rng(505);
    const Matrix<float> a = randomSparseMatrix(96, 80, 0.85, rng);
    const Matrix<float> b = randomSparseMatrix(80, 64, 0.7, rng);
    const SparsityProfile pa = SparsityProfile::fromMatrixA(a, 32);
    const SparsityProfile pb = SparsityProfile::fromMatrixB(b, 32);
    const TwoLevelBitmapMatrix a_enc =
        TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);
    const TwoLevelBitmapMatrix b_enc =
        TwoLevelBitmapMatrix::encode(b, 32, 32, Major::Row);
    KernelRequest encoded = KernelRequest::gemm(a_enc.rows(),
                                                b_enc.cols(), a.cols());
    encoded.a = a_enc;
    encoded.b = b_enc;
    // tile_k is the one tiling knob: a pair encoded at tile_k 16 runs
    // under a request at tile_k 16.
    const TwoLevelBitmapMatrix a_enc16 =
        TwoLevelBitmapMatrix::encode(a, 32, 16, Major::Col);
    const TwoLevelBitmapMatrix b_enc16 =
        TwoLevelBitmapMatrix::encode(b, 16, 32, Major::Row);
    KernelRequest encoded16 = encoded;
    encoded16.a = a_enc16;
    encoded16.b = b_enc16;
    encoded16.gemm_options.tile_k = 16;

    Rng spmm_rng(506);
    const Matrix<float> sa =
        randomSparseMatrix(120, 96, 0.95, spmm_rng);
    const Matrix<float> sb = randomSparseMatrix(96, 32, 0.0, spmm_rng);
    const SparsityProfile sa8 = SparsityProfile::fromMatrixA(sa, 8);
    // The cuSPARSE-like SpMM row needs an A whose density round trip
    // (1 - sparsity) * m * k truncates below its non-zero count.
    ASSERT_LT(static_cast<int64_t>((1.0 - wordSparsity(sa)) *
                                   static_cast<double>(sa.rows()) *
                                   sa.cols()),
              wordNnz(sa.data().data(), sa.size()));

    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    Rng conv_rng(507);
    const std::vector<FunctionalConv> convs = functionalConvs(conv_rng);

    std::vector<std::pair<std::string, KernelRequest>> flavors = {
        {"synthetic gemm", KernelRequest::gemm(256, 192, 160, 0.8, 0.6)},
        {"profile gemm", KernelRequest::gemm(pa, pb)},
        {"concrete gemm", KernelRequest::gemm(a, b)},
        {"pre-encoded gemm", encoded},
        {"pre-encoded gemm at tile_k 16", encoded16},
        {"synthetic spmm", KernelRequest::spmm(256, 32, 192, 0.97)},
        {"profile spmm", KernelRequest::spmm(sa8, 32)},
        {"concrete spmm", KernelRequest::spmm(sa, sb)},
        {"synthetic conv", KernelRequest::conv(shape, 0.8, 0.6)},
    };
    for (const FunctionalConv &c : convs)
        flavors.emplace_back(c.label, c.request());
    std::set<std::string> checked;
    for (const auto &[flavor, request] : flavors) {
        for (const auto &backend : session.registry().backends()) {
            if (!backend->supports(request))
                continue;
            const bool estimate_gap =
                backend->method() == Method::CusparseLike &&
                flavor == "concrete gemm";
            KernelRequest req = request;
            req.method = backend->method();
            std::optional<KernelStats> timing_only;
            for (bool functional : {false, true}) {
                req.gemm_options.functional = functional;
                const std::string context =
                    std::string(backend->name()) + " on " + flavor +
                    (functional ? ", values computed" : ", timing only");
                auto plan = session.plan(req);
                const double estimate = plan->estimatedTimeUs();
                const KernelReport report = plan->execute();
                ASSERT_GT(report.timeUs(), 0.0) << context;
                if (!estimate_gap) {
                    EXPECT_LT(std::fabs(estimate - report.timeUs()) /
                                  report.timeUs(),
                              1e-9)
                        << context << ": estimate=" << estimate
                        << " actual=" << report.timeUs();
                }
                if (!timing_only)
                    timing_only = report.stats;
                expectIdenticalStats(report.stats, *timing_only,
                                     context);
                expectIdenticalStats(
                    Session().run(req).stats, *timing_only,
                    context + ", executed without an estimate");
            }
            checked.insert(backend->name());
        }
    }
    // No backend may drop out of the table unnoticed.
    EXPECT_EQ(checked.size(), session.registry().backends().size());
}

TEST(AutoEstimateTest, FunctionalDualPlansReportTheirEstimate)
{
    // A functional dual-sparse plan reports the stats it was ranked
    // by, bit for bit, and a plan of its method executed without an
    // estimate reports those same stats and values. The GEMMs include
    // ragged shapes (M or N not a multiple of the 32-wide warp tile),
    // where the one SpGEMM timing model sizes the output by whole
    // warp tiles. The convs run under DualSparse and under Auto, whose
    // estimates lower the real operands.
    Rng rng(510);
    std::deque<Matrix<float>> operands;
    std::vector<std::pair<std::string, KernelRequest>> requests;
    for (auto [m, k, n] :
         {std::tuple{128, 96, 128}, std::tuple{100, 200, 70},
          std::tuple{196, 1152, 256}, std::tuple{784, 576, 64}}) {
        for (double sparsity : {0.5, 0.9}) {
            const Matrix<float> &a = operands.emplace_back(
                randomSparseMatrix(m, k, sparsity, rng));
            const Matrix<float> &b = operands.emplace_back(
                randomSparseMatrix(k, n, sparsity, rng));
            requests.emplace_back(
                "gemm " + std::to_string(m) + "x" + std::to_string(k) +
                    "x" + std::to_string(n) + " at sparsity " +
                    std::to_string(sparsity),
                KernelRequest::gemm(a, b).withMethod(
                    Method::DualSparse));
        }
    }
    for (const char *name : {"cora_like", "ppi_like"}) {
        Matrix<float> &a = operands.emplace_back();
        std::string error;
        ASSERT_TRUE(loadMatrixMarket(std::string(DSTC_CORPUS_DIR) + "/" +
                                         name + ".mtx",
                                     &a, &error))
            << error;
        const Matrix<float> &b = operands.emplace_back(
            randomSparseMatrix(a.cols(), 32, 0.0, rng));
        requests.emplace_back(
            std::string("spmm ") + name,
            KernelRequest::spmm(a, b).withMethod(Method::DualSparse));
    }
    const std::vector<FunctionalConv> convs = functionalConvs(rng);
    for (const FunctionalConv &c : convs)
        for (Method method : {Method::DualSparse, Method::Auto})
            requests.emplace_back(
                c.label + " / " + tokenOf(kMethods, method),
                c.request().withMethod(method));

    for (const auto &[label, req] : requests) {
        Session estimated_session, fresh_session;
        auto plan = estimated_session.plan(req);
        const double estimate = plan->estimatedTimeUs();
        const KernelReport report = plan->execute();
        EXPECT_EQ(report.stats.timeUs(), estimate) << label;
        EXPECT_EQ(report.planned_us, estimate) << label;

        const KernelReport unestimated = fresh_session.run(
            KernelRequest(req).withMethod(report.method));
        EXPECT_EQ(unestimated.stats, report.stats) << label;
        if (req.kind == KernelRequest::Kind::Conv) {
            ASSERT_TRUE(report.output && unestimated.output) << label;
            EXPECT_TRUE(unestimated.output->data() ==
                        report.output->data())
                << label;
        } else {
            ASSERT_TRUE(report.d && unestimated.d) << label;
            EXPECT_TRUE(*unestimated.d == *report.d) << label;
        }
    }
}

TEST(AutoEstimateTest, NoMisrankingAtBackendCrossovers)
{
    // Walk the grid through the dense/dual/cusparse crossover
    // region; at every point the backend Auto picks by estimate must
    // be (near-)optimal by *actual* executed time: its actual time
    // within 5% of the best candidate's actual time. This is the
    // contract that keeps the estimate gap harmless — Auto may only
    // be wrong where being wrong costs nothing.
    Session session;
    Rng rng(502);
    const std::vector<Method> exact_candidates = {
        Method::DualSparse, Method::Dense, Method::CusparseLike};
    for (double sa : {0.0, 0.5, 0.9, 0.99}) {
        for (double sb : {0.0, 0.7, 0.9, 0.99}) {
            Matrix<float> a = randomSparseMatrix(192, 192, sa, rng);
            Matrix<float> b = randomSparseMatrix(192, 192, sb, rng);

            KernelReport auto_report =
                session.run(pointRequest(a, b, Method::Auto));

            double best_actual = 0.0;
            double chosen_actual = 0.0;
            for (Method method : exact_candidates) {
                const double actual =
                    session.run(pointRequest(a, b, method)).timeUs();
                if (best_actual == 0.0 || actual < best_actual)
                    best_actual = actual;
                if (method == auto_report.method)
                    chosen_actual = actual;
            }
            ASSERT_GT(chosen_actual, 0.0)
                << "Auto picked a non-candidate backend";
            EXPECT_LE(chosen_actual, best_actual * 1.05)
                << "a_sp=" << sa << " b_sp=" << sb << " picked "
                << nameOf(kMethods, auto_report.method) << " ("
                << chosen_actual << " us) but best actual is "
                << best_actual << " us";
        }
    }
}

TEST(AutoEstimateTest, AutoOverMatricesMatchesItsWinnerBitwise)
{
    // Auto plans every candidate against one shared operand memo
    // (digest and non-zero count per matrix). The plan it executes
    // must report exactly what planning its winner alone reports.
    Rng rng(808);
    std::vector<Matrix<float>> operands;
    operands.reserve(8);
    const auto matrix = [&](int rows, int cols,
                            double sparsity) -> const Matrix<float> & {
        operands.push_back(
            randomSparseMatrix(rows, cols, sparsity, rng));
        return operands.back();
    };
    std::vector<KernelRequest> requests;
    for (double sparsity : {0.5, 0.995}) {
        const Matrix<float> &a = matrix(160, 192, sparsity);
        const Matrix<float> &b = matrix(192, 128, sparsity);
        requests.push_back(KernelRequest::gemm(a, b));
    }
    for (double sparsity : {0.9, 0.999}) {
        const Matrix<float> &a = matrix(256, 256, sparsity);
        const Matrix<float> &b = matrix(256, 32, 0.0);
        requests.push_back(KernelRequest::spmm(a, b));
    }
    for (const KernelRequest &request : requests) {
        const bool spmm = request.kind == KernelRequest::Kind::Spmm;
        Session auto_session, explicit_session;
        const KernelReport got = auto_session.run(
            KernelRequest(request).withMethod(Method::Auto));
        auto plan = explicit_session.plan(
            KernelRequest(request).withMethod(got.method));
        plan->estimatedTimeUs();
        const KernelReport want = plan->execute();
        const std::string context = std::string(spmm ? "spmm" : "gemm") +
                                    " won by " + nameOf(kMethods, got.method);
        EXPECT_EQ(got.stats, want.stats) << context;
        EXPECT_EQ(got.planned_us, want.planned_us) << context;
        ASSERT_TRUE(got.d && want.d) << context;
        EXPECT_TRUE(*got.d == *want.d) << context;

        // The cuSPARSE-like estimate reads the memo's non-zero count;
        // it must price exactly what the word scans price.
        const Matrix<float> &a = *request.a.matrix();
        const Matrix<float> &b = *request.b.matrix();
        const KernelStats expect =
            spmm ? cusparseSpmmTime(
                       GpuConfig::v100(), request.m,
                       wordNnz(a.data().data(), a.size()) * request.n,
                       request.m * request.n)
                 : cusparseGemmTimeExpected(
                       GpuConfig::v100(), request.m, request.n,
                       request.k, 1.0 - wordSparsity(a),
                       1.0 - wordSparsity(b));
        EXPECT_EQ(explicit_session
                      .plan(KernelRequest(request).withMethod(
                          Method::CusparseLike))
                      ->estimatedTimeUs(),
                  expect.timeUs())
            << context;
    }
}

} // namespace
} // namespace dstc
