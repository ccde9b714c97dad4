/**
 * @file
 * Equivalence gate of the word-parallel convolution pipeline: for
 * every ConvMethod and worker count, ConvExecutor::run must
 * reproduce the retained scalar reference (runScalar) bit for bit —
 * output values, cycle/instruction stats and traffic alike. This is
 * what lets the bench and CI treat runScalar as the ground truth the
 * fast path may never drift from.
 */
#include "conv/spconv.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/session.h"
#include "core/thread_pool.h"
#include "model/sparsity_gen.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

const ConvMethod kAllMethods[] = {
    ConvMethod::DenseExplicit,
    ConvMethod::DenseImplicit,
    ConvMethod::SingleSparseExplicit,
    ConvMethod::SingleSparseImplicit,
    ConvMethod::DualSparseImplicit,
};

/** Bitwise comparison of two stats records (no tolerance). */
void
expectStatsIdentical(const KernelStats &a, const KernelStats &b,
                     const char *label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.mix.hmma, b.mix.hmma) << label;
    EXPECT_EQ(a.mix.ohmma_issued, b.mix.ohmma_issued) << label;
    EXPECT_EQ(a.mix.ohmma_skipped, b.mix.ohmma_skipped) << label;
    EXPECT_EQ(a.mix.bohmma, b.mix.bohmma) << label;
    EXPECT_EQ(a.mix.popc, b.mix.popc) << label;
    EXPECT_EQ(a.warp_tiles, b.warp_tiles) << label;
    EXPECT_EQ(a.warp_tiles_skipped, b.warp_tiles_skipped) << label;
    EXPECT_EQ(a.merge_cycles, b.merge_cycles) << label;
    // Doubles compared bitwise: the two paths must run the same
    // arithmetic, not merely land close.
    EXPECT_EQ(std::memcmp(&a.compute_us, &b.compute_us,
                          sizeof(double)),
              0)
        << label << " compute " << a.compute_us << " vs "
        << b.compute_us;
    EXPECT_EQ(std::memcmp(&a.memory_us, &b.memory_us, sizeof(double)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(&a.dram_bytes, &b.dram_bytes,
                          sizeof(double)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(&a.launch_us, &b.launch_us, sizeof(double)),
              0)
        << label;
    EXPECT_EQ(a.bound, b.bound) << label;
}

/** Bitwise comparison of two output tensors. */
void
expectOutputIdentical(const Tensor4d &a, const Tensor4d &b,
                      const char *label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0)
        << label;
}

class ConvEquivalenceTest : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = GpuConfig::v100();
    ConvExecutor executor_{cfg_};

    ConvShape
    shape(int c, int hw, int oc, int kernel = 3, int stride = 1,
          int pad = 1, int batch = 1) const
    {
        ConvShape s;
        s.batch = batch;
        s.in_c = c;
        s.in_h = s.in_w = hw;
        s.out_c = oc;
        s.kernel = kernel;
        s.stride = stride;
        s.pad = pad;
        return s;
    }
};

TEST_F(ConvEquivalenceTest, WordPathMatchesScalarForAllMethods)
{
    Rng rng(411);
    ConvShape s = shape(8, 18, 12);
    Tensor4d input =
        reluActivationTensor(1, 8, 18, 18, 0.6, rng);
    Matrix<float> weights = randomSparseMatrix(12, 72, 0.8, rng);

    for (ConvMethod method : kAllMethods) {
        for (int workers : {1, 4}) {
            ConvOptions opts;
            opts.num_workers = workers;
            ConvResult fast =
                executor_.run(input, weights, s, method, opts);
            ConvResult ref =
                executor_.runScalar(input, weights, s, method, opts);
            const std::string label =
                std::string(nameOf(kConvMethods, method)) + " workers=" +
                std::to_string(workers);
            expectOutputIdentical(fast.output, ref.output,
                                  label.c_str());
            expectStatsIdentical(fast.stats, ref.stats,
                                 label.c_str());
        }
    }
}

TEST_F(ConvEquivalenceTest, StridedPaddedBatchedShapesMatch)
{
    Rng rng(412);
    // Strided window (the bit-by-bit gather path), pad 2, batch 2,
    // output width crossing the 64-bit word boundary.
    ConvShape s = shape(3, 70, 5, 5, 2, 2, 2);
    Tensor4d input = reluActivationTensor(2, 3, 70, 70, 0.7, rng);
    Matrix<float> weights = randomSparseMatrix(5, 75, 0.6, rng);

    for (ConvMethod method :
         {ConvMethod::SingleSparseImplicit,
          ConvMethod::DualSparseImplicit}) {
        for (int workers : {1, 4}) {
            ConvOptions opts;
            opts.num_workers = workers;
            ConvResult fast =
                executor_.run(input, weights, s, method, opts);
            ConvResult ref =
                executor_.runScalar(input, weights, s, method, opts);
            expectOutputIdentical(fast.output, ref.output,
                                  nameOf(kConvMethods, method));
            expectStatsIdentical(fast.stats, ref.stats,
                                 nameOf(kConvMethods, method));
        }
    }
}

TEST_F(ConvEquivalenceTest, StrideByPadGridMatchesScalar)
{
    // The word-parallel strided deinterleave (stride mask + PEXT +
    // rank-by-running-popcount) against the per-bit probe gather the
    // scalar reference retains: every stride x pad combination must
    // agree bit for bit, outputs and stats alike, for every worker
    // count. in_w = 29 puts window ends astride the 64-bit word
    // boundary once the kernel offsets shift them.
    Rng rng(416);
    for (int stride : {2, 3}) {
        for (int pad : {0, 1}) {
            ConvShape s = shape(4, 29, 6, 3, stride, pad);
            Tensor4d input =
                reluActivationTensor(1, 4, 29, 29, 0.7, rng);
            Matrix<float> weights =
                randomSparseMatrix(6, 36, 0.8, rng);
            for (ConvMethod method :
                 {ConvMethod::SingleSparseImplicit,
                  ConvMethod::DualSparseImplicit}) {
                for (int workers : {1, 4}) {
                    ConvOptions opts;
                    opts.num_workers = workers;
                    ConvResult fast = executor_.run(input, weights,
                                                    s, method, opts);
                    ConvResult ref = executor_.runScalar(
                        input, weights, s, method, opts);
                    const std::string label =
                        std::string(nameOf(kConvMethods, method)) +
                        " stride=" + std::to_string(stride) +
                        " pad=" + std::to_string(pad) +
                        " workers=" + std::to_string(workers);
                    expectOutputIdentical(fast.output, ref.output,
                                          label.c_str());
                    expectStatsIdentical(fast.stats, ref.stats,
                                         label.c_str());
                }
            }
        }
    }
}

TEST_F(ConvEquivalenceTest, WorkerCountDoesNotChangeResults)
{
    Rng rng(413);
    ConvShape s = shape(6, 20, 10);
    Tensor4d input = reluActivationTensor(1, 6, 20, 20, 0.85, rng);
    Matrix<float> weights = randomSparseMatrix(10, 54, 0.9, rng);

    ConvOptions serial;
    serial.num_workers = 1;
    ConvResult base = executor_.run(input, weights, s,
                                    ConvMethod::DualSparseImplicit,
                                    serial);
    for (int workers : {0, 2, 4, 7}) {
        ConvOptions opts;
        opts.num_workers = workers;
        ConvResult r = executor_.run(
            input, weights, s, ConvMethod::DualSparseImplicit, opts);
        const std::string label =
            "workers=" + std::to_string(workers);
        expectOutputIdentical(r.output, base.output, label.c_str());
        expectStatsIdentical(r.stats, base.stats, label.c_str());
    }
}

TEST_F(ConvEquivalenceTest, OutputStillMatchesDirectConvolution)
{
    Rng rng(414);
    ConvShape s = shape(4, 12, 6);
    Tensor4d input = reluActivationTensor(1, 4, 12, 12, 0.5, rng);
    Matrix<float> weights = randomSparseMatrix(6, 36, 0.7, rng);
    Tensor4d golden = refConv2d(input, weights, s.params());

    ConvResult r = executor_.run(input, weights, s,
                                 ConvMethod::DualSparseImplicit);
    double worst = 0.0;
    for (size_t i = 0; i < golden.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(
                             r.output.data()[i] - golden.data()[i])));
    EXPECT_LT(worst, 2e-2);
}

TEST_F(ConvEquivalenceTest, SessionConvRequestHonorsWorkerKnob)
{
    Rng rng(415);
    ConvShape s = shape(4, 14, 8);
    Tensor4d input = reluActivationTensor(1, 4, 14, 14, 0.6, rng);
    Matrix<float> weights = randomSparseMatrix(8, 36, 0.8, rng);

    const KernelRequest req = KernelRequest::conv(input, weights, s)
                                  .withMethod(Method::DualSparse);
    const auto run = [&](int compute_workers) {
        SessionOptions opts{cfg_};
        opts.resources.compute_workers = compute_workers;
        return Session(opts).run(req);
    };
    KernelReport serial = run(1);
    KernelReport pooled = run(4);
    ASSERT_TRUE(serial.output && pooled.output);
    expectOutputIdentical(*serial.output, *pooled.output, "session");
    expectStatsIdentical(serial.stats, pooled.stats, "session");
}

TEST_F(ConvEquivalenceTest, SerialSessionKeepsConvTimingOffThePool)
{
    // One compute worker runs every kernel-internal loop in the
    // caller, the conv timing model's included: neither a functional
    // nor a synthetic Dual Sparse conv enqueues a shared-pool job.
    Rng rng(416);
    ConvShape s = shape(4, 14, 8);
    Tensor4d input = reluActivationTensor(1, 4, 14, 14, 0.6, rng);
    Matrix<float> weights = randomSparseMatrix(8, 36, 0.8, rng);

    SessionOptions opts{cfg_};
    opts.resources = {.compute_workers = 1, .encode_workers = 1};
    Session session(opts);
    const ThreadPool &pool = sharedThreadPool();
    const uint64_t before = pool.jobsEnqueued();
    KernelReport functional = session.run(
        KernelRequest::conv(input, weights, s)
            .withMethod(Method::DualSparse));
    KernelReport synthetic = session.run(
        KernelRequest::conv(s, 0.8, 0.6).withMethod(Method::DualSparse));
    EXPECT_EQ(pool.jobsEnqueued(), before);
    EXPECT_GT(functional.stats.mix.bohmma, 0);
    EXPECT_GT(synthetic.stats.mix.bohmma, 0);
}

} // namespace
} // namespace dstc
