/**
 * @file
 * Cross-cutting edge cases: configurations the main suites do not
 * reach — rectangular feature maps, non-default tiling options,
 * FP16 extreme values flowing through the kernels, degenerate
 * shapes, and operands whose extents disagree.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/fp16.h"
#include "common/rng.h"
#include "im2col/dense_im2col.h"
#include "session_test_util.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(EdgeCases, RectangularFeatureMapConv)
{
    // in_h != in_w exercises the row/column bookkeeping of every
    // im2col variant through the executor.
    Rng rng(301);
    Session session;
    ConvShape shape;
    shape.in_c = 3;
    shape.in_h = 7;
    shape.in_w = 19;
    shape.out_c = 5;
    shape.kernel = 3;
    shape.pad = 1;
    Tensor4d input(1, 3, 7, 19);
    for (float &v : input.data())
        v = rng.bernoulli(0.5) ? rng.uniformFloat(-1.0f, 1.0f) : 0.0f;
    Matrix<float> weights = randomSparseMatrix(5, 27, 0.5, rng);
    Tensor4d golden = refConv2d(input, weights, shape.params());
    for (ConvMethod method : {ConvMethod::DenseExplicit,
                              ConvMethod::DualSparseImplicit}) {
        KernelReport r =
            testutil::conv(session, input, weights, shape, method);
        double worst = 0.0;
        for (size_t i = 0; i < golden.size(); ++i)
            worst = std::max(worst, static_cast<double>(std::fabs(
                                        r.output->data()[i] -
                                        golden.data()[i])));
        EXPECT_LT(worst, 2e-2) << nameOf(kConvMethods, method);
    }
}

TEST(EdgeCases, WideThinAndTallSkinnyGemm)
{
    Rng rng(302);
    Session session;
    for (auto [m, k, n] : {std::tuple{1, 257, 95},
                           std::tuple{95, 3, 200},
                           std::tuple{200, 129, 1}}) {
        Matrix<float> a = randomSparseMatrix(m, k, 0.5, rng);
        Matrix<float> b = randomSparseMatrix(k, n, 0.5, rng);
        KernelReport r = testutil::spgemm(session, a, b);
        EXPECT_LT(maxAbsDiff(*r.d, refGemmFp16(a, b)), 1e-5)
            << m << "x" << k << "x" << n;
    }
}

TEST(EdgeCases, NonDefaultTileKMatchesDefault)
{
    // Timing options must not change functional results, and the
    // instruction totals are tiling-invariant (the k loop covers the
    // same non-zeros regardless of chunking).
    Rng rng(303);
    Session session;
    Matrix<float> a = randomSparseMatrix(96, 160, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(160, 96, 0.7, rng);
    SpGemmOptions defaults;
    SpGemmOptions chunked;
    chunked.tile_k = 64;
    KernelReport r1 = testutil::spgemm(session, a, b, defaults);
    KernelReport r2 = testutil::spgemm(session, a, b, chunked);
    EXPECT_LT(maxAbsDiff(*r1.d, *r2.d), 1e-9);
    EXPECT_EQ(r1.stats.mix.ohmma_issued, r2.stats.mix.ohmma_issued);
    EXPECT_EQ(r1.stats.mix.bohmma, r2.stats.mix.bohmma);
}

TEST(EdgeCases, SparseOutputOptionOnlyAffectsMemory)
{
    Rng rng(304);
    Session session;
    Matrix<float> a = randomSparseMatrix(128, 128, 0.95, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.95, rng);
    SpGemmOptions dense_out;
    dense_out.functional = false;
    SpGemmOptions sparse_out = dense_out;
    sparse_out.sparse_output = true;
    KernelStats d = testutil::spgemm(session, a, b, dense_out).stats;
    KernelStats s =
        testutil::spgemm(session, a, b, sparse_out).stats;
    EXPECT_DOUBLE_EQ(d.compute_us, s.compute_us);
    EXPECT_LE(s.dram_bytes, d.dram_bytes);
}

TEST(EdgeCases, Fp16ExtremeValuesThroughSpGemm)
{
    // Values at the edge of FP16 range survive the encode /
    // condense / multiply pipeline like the reference.
    Session session;
    Matrix<float> a(32, 32), b(32, 32);
    a.at(0, 0) = 65504.0f;   // max finite half
    a.at(1, 1) = -65504.0f;
    a.at(2, 2) = 6.1e-5f;    // near the subnormal boundary
    b.at(0, 0) = 0.5f;
    b.at(1, 1) = 2.0f;       // -65504 * 2 overflows to -inf in FP32? no
    b.at(2, 2) = 1.0f;
    KernelReport r = testutil::spgemm(session, a, b);
    Matrix<float> golden = refGemmFp16(a, b);
    EXPECT_EQ(r.d->at(0, 0), golden.at(0, 0));
    EXPECT_EQ(r.d->at(1, 1), golden.at(1, 1));
    EXPECT_EQ(r.d->at(2, 2), golden.at(2, 2));
}

TEST(EdgeCases, KernelLargerThanPaddedInput)
{
    // 5x5 kernel over a 4x4 input with pad 2: windows consist mostly
    // of padding.
    Rng rng(305);
    Session session;
    ConvShape shape;
    shape.in_c = 2;
    shape.in_h = shape.in_w = 4;
    shape.out_c = 3;
    shape.kernel = 5;
    shape.pad = 2;
    Tensor4d input = randomSparseTensor(1, 2, 4, 4, 0.3, rng);
    Matrix<float> weights = randomSparseMatrix(3, 50, 0.2, rng);
    Tensor4d golden = refConv2d(input, weights, shape.params());
    KernelReport r = testutil::conv(session, input, weights, shape,
                                    ConvMethod::DualSparseImplicit);
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(
                             r.output->data()[i] - golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST(EdgeCases, BatchGreaterThanOne)
{
    Rng rng(306);
    Session session;
    ConvShape shape;
    shape.batch = 3;
    shape.in_c = 4;
    shape.in_h = shape.in_w = 9;
    shape.out_c = 6;
    shape.kernel = 3;
    shape.pad = 1;
    Tensor4d input = randomSparseTensor(3, 4, 9, 9, 0.5, rng);
    Matrix<float> weights = randomSparseMatrix(6, 36, 0.6, rng);
    Tensor4d golden = refConv2d(input, weights, shape.params());
    KernelReport r = testutil::conv(session, input, weights, shape,
                                    ConvMethod::DualSparseImplicit);
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(
                             r.output->data()[i] - golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST(EdgeCases, OneByOneConvIsPureGemm)
{
    // kernel=1, pad=0: the lowered matrix is the flattened input,
    // and all methods reduce to plain (Sp)GEMM.
    Rng rng(307);
    Session session;
    ConvShape shape;
    shape.in_c = 8;
    shape.in_h = shape.in_w = 6;
    shape.out_c = 4;
    shape.kernel = 1;
    shape.pad = 0;
    Tensor4d input = randomSparseTensor(1, 8, 6, 6, 0.6, rng);
    Matrix<float> weights = randomSparseMatrix(4, 8, 0.4, rng);
    EXPECT_NEAR(shape.inflation(), 1.0, 1e-9);
    Tensor4d golden = refConv2d(input, weights, shape.params());
    KernelReport r = testutil::conv(session, input, weights, shape,
                                    ConvMethod::DualSparseImplicit);
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(
                             r.output->data()[i] - golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST(EdgeCases, OperandExtentMismatchesAreUnsupported)
{
    // Concrete operands that disagree in extent are refused up front
    // (operandsValid), never handed to a kernel that indexes past
    // them. Each case is one extent off from a supported request.
    Rng rng(308);
    const Matrix<float> a = randomSparseMatrix(64, 48, 0.5, rng);
    const Matrix<float> b = randomSparseMatrix(48, 32, 0.5, rng);
    const Matrix<float> b_short = randomSparseMatrix(40, 32, 0.5, rng);
    ConvShape shape;
    shape.in_c = 4;
    shape.in_h = shape.in_w = 8;
    shape.out_c = 8;
    const Tensor4d input = randomSparseTensor(1, 4, 8, 8, 0.5, rng);
    const Matrix<float> weights = randomSparseMatrix(8, 36, 0.5, rng);
    const Tensor4d wrong_inputs[] = {
        randomSparseTensor(2, 4, 8, 8, 0.5, rng),
        randomSparseTensor(1, 5, 8, 8, 0.5, rng),
        randomSparseTensor(1, 4, 9, 8, 0.5, rng),
        randomSparseTensor(1, 4, 8, 7, 0.5, rng),
    };
    const Matrix<float> wrong_weights[] = {
        randomSparseMatrix(7, 36, 0.5, rng),
        randomSparseMatrix(8, 35, 0.5, rng),
    };

    std::vector<std::pair<std::string, KernelRequest>> mismatched = {
        {"gemm K", KernelRequest::gemm(a, b_short)},
        {"spmm K", KernelRequest::spmm(a, b_short)},
    };
    const char *tensor_dims[] = {"batch", "in_c", "in_h", "in_w"};
    for (int i = 0; i < 4; ++i)
        mismatched.emplace_back(
            std::string("conv input ") + tensor_dims[i],
            KernelRequest::conv(wrong_inputs[i], weights, shape));
    mismatched.emplace_back(
        "conv weight rows",
        KernelRequest::conv(input, wrong_weights[0], shape));
    mismatched.emplace_back(
        "conv weight cols",
        KernelRequest::conv(input, wrong_weights[1], shape));

    Session session;
    for (Method method : {Method::Auto, Method::DualSparse,
                          Method::Dense}) {
        for (KernelRequest req : {KernelRequest::gemm(a, b),
                                  KernelRequest::spmm(a, b),
                                  KernelRequest::conv(input, weights,
                                                      shape)})
            EXPECT_TRUE(session.registry().supports(
                req.withMethod(method)))
                << tokenOf(kMethods, method);
        for (auto [label, req] : mismatched)
            EXPECT_FALSE(session.registry().supports(
                req.withMethod(method)))
                << label << " / " << tokenOf(kMethods, method);
    }
}

} // namespace
} // namespace dstc
