#include "conv/spconv.h"

#include <algorithm>

#include "baselines/zhu_sparse_tc.h"
#include "common/logging.h"
#include "gemm/dense_gemm.h"
#include "gemm/spgemm_device.h"
#include "im2col/dense_im2col.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"
#include "timing/memory_model.h"

namespace dstc {

const char *
convMethodName(ConvMethod method)
{
    switch (method) {
      case ConvMethod::DenseExplicit:
        return "Dense Explicit";
      case ConvMethod::DenseImplicit:
        return "Dense Implicit";
      case ConvMethod::SingleSparseExplicit:
        return "Single Sparse Explicit";
      case ConvMethod::SingleSparseImplicit:
        return "Single Sparse Implicit";
      case ConvMethod::DualSparseImplicit:
        return "Dual Sparse Implicit";
    }
    panic("unknown conv method");
}

namespace {

bool
isExplicit(ConvMethod method)
{
    return method == ConvMethod::DenseExplicit ||
           method == ConvMethod::SingleSparseExplicit;
}

bool
isImplicitSparse(ConvMethod method)
{
    return method == ConvMethod::SingleSparseImplicit ||
           method == ConvMethod::DualSparseImplicit;
}

} // namespace

ConvExecutor::ConvExecutor(const GpuConfig &cfg) : cfg_(cfg) {}

KernelStats
ConvExecutor::timeGemmPhase(const ConvShape &shape, ConvMethod method,
                            const SparsityProfile *a_profile,
                            const SparsityProfile *b_profile,
                            double input_bytes,
                            double weight_bytes) const
{
    const int64_t m = shape.loweredRows();
    const int64_t k = shape.loweredCols();
    const int64_t n = shape.out_c;

    KernelStats stats;
    switch (method) {
      case ConvMethod::DenseExplicit:
      case ConvMethod::DenseImplicit: {
        DenseGemmDevice dense(cfg_);
        stats = dense.timeOnly(m, n, k);
        break;
      }
      case ConvMethod::SingleSparseExplicit: {
        // The fixed-rate vector-wise design: weights are pruned to
        // the 75% format whatever their natural sparsity.
        stats = zhuGemm(cfg_, m, n, k);
        break;
      }
      case ConvMethod::SingleSparseImplicit:
      case ConvMethod::DualSparseImplicit: {
        DSTC_ASSERT(a_profile && b_profile);
        SpGemmDevice spgemm(cfg_);
        stats = spgemm.timeFromProfiles(*a_profile, *b_profile);
        break;
      }
    }
    stats.name = convMethodName(method);

    // Memory side: convolution traffic replaces the generic GEMM
    // traffic. Explicit methods materialize the lowered matrix in
    // DRAM (write + read); implicit ones read the original layout.
    MemoryModel mem(cfg_);
    const double output_bytes =
        static_cast<double>(shape.outputElems()) * 2.0;
    const double inflation = std::max(1.0, shape.inflation());
    stats.dram_bytes = mem.convTrafficBytes(
        input_bytes, weight_bytes, output_bytes, inflation,
        isExplicit(method));
    stats.memory_us = mem.dramTimeUs(stats.dram_bytes);

    // Explicit methods launch the im2col kernel separately.
    stats.launch_us =
        cfg_.kernel_launch_us * (isExplicit(method) ? 2.0 : 1.0);
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

ConvResult
ConvExecutor::run(const Tensor4d &input, const Matrix<float> &weights,
                  const ConvShape &shape, ConvMethod method,
                  const ConvOptions &options) const
{
    DSTC_ASSERT(weights.rows() == shape.out_c &&
                weights.cols() == shape.loweredCols(),
                "weights must be out_c x (in_c*k*k)");

    // The explicit / dense-implicit baselines are untouched by the
    // word-parallel rebuild — the lowered scalar path IS their path.
    if (!isImplicitSparse(method))
        return runLowered(input, weights, shape, method, options);

    const Matrix<float> wt = flattenWeightsTransposed(weights);

    // The word-parallel implicit pipeline: bitmap lowering re-tiled
    // straight into the two-level SpGEMM operand — no dense lowered
    // matrix, no per-pixel decode/re-encode — then the pooled
    // output-tile loop accumulating into D.
    SpGemmOptions gemm_opts;
    gemm_opts.num_workers = options.num_workers;

    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);
    LoweredFeatureMap lfm =
        im2colFromBitmap(fmap, shape, true, options.num_workers);
    const double input_bytes =
        static_cast<double>(fmap.encodedBytes());

    TwoLevelBitmapMatrix a_enc = lfm.toTwoLevel(
        kWarpTile, gemm_opts.tile_k, options.num_workers);
    TwoLevelBitmapMatrix b_enc =
        wordEncodeTwoLevel(wt, gemm_opts.tile_k, kWarpTile,
                           Major::Row, options.num_workers);
    Matrix<float> d =
        SpGemmDevice(cfg_).multiplyValues(a_enc, b_enc, gemm_opts);

    // Timing from the actual data's sparsity: the A profile reads
    // the lowered column bitmaps directly (word popcounts), matching
    // the dense extraction of the scalar path bit for bit.
    SparsityProfile a_profile =
        method == ConvMethod::DualSparseImplicit
            ? SparsityProfile::fromLowered(lfm, 32)
            : SparsityProfile::denseA(shape.loweredRows(),
                                      shape.loweredCols(), 32);
    SparsityProfile b_profile =
        SparsityProfile::fromMatrixBWord(wt, 32);
    const double weight_bytes =
        static_cast<double>(b_profile.encodedBytes(32));

    ConvResult result;
    result.stats = timeGemmPhase(shape, method, &a_profile, &b_profile,
                                 input_bytes, weight_bytes);
    result.output = foldLoweredOutput(d, shape);
    return result;
}

ConvResult
ConvExecutor::runLowered(const Tensor4d &input,
                         const Matrix<float> &weights,
                         const ConvShape &shape, ConvMethod method,
                         const ConvOptions &options) const
{
    DSTC_ASSERT(!isImplicitSparse(method),
                "runLowered serves the explicit / dense-implicit "
                "baselines");
    DSTC_ASSERT(weights.rows() == shape.out_c &&
                weights.cols() == shape.loweredCols(),
                "weights must be out_c x (in_c*k*k)");
    (void)options; // the baselines have no parallel tile loop

    const Matrix<float> wt = flattenWeightsTransposed(weights);

    Matrix<float> lowered = im2colExplicit(input, shape);
    double input_bytes =
        static_cast<double>(shape.inputElems()) * 2.0;
    if (method == ConvMethod::DenseImplicit) {
        // Validate the outer-friendly generation order against the
        // row-major one on the real data.
        DSTC_ASSERT(maxAbsDiff(lowered, im2colOuterFriendly(
                                            input, shape)) == 0.0,
                    "outer-friendly im2col diverged");
    }

    Matrix<float> d = refGemmFp16(lowered, wt);

    // Timing from the actual data's sparsity.
    SparsityProfile a_profile = SparsityProfile::denseA(
        shape.loweredRows(), shape.loweredCols(), 32);
    SparsityProfile b_profile = SparsityProfile::fromMatrixB(wt, 32);

    double weight_bytes;
    switch (method) {
      case ConvMethod::DenseExplicit:
      case ConvMethod::DenseImplicit:
        weight_bytes = static_cast<double>(wt.rows()) * wt.cols() * 2.0;
        break;
      case ConvMethod::SingleSparseExplicit:
        weight_bytes = static_cast<double>(wt.rows()) * wt.cols() *
                       (1.0 - kZhuPruneRatio) * 2.5;
        break;
      default:
        weight_bytes = static_cast<double>(b_profile.encodedBytes(32));
    }
    if (!isExplicit(method)) {
        // Dense implicit reads the raw FP16 layout, not a bitmap.
        input_bytes = static_cast<double>(shape.inputElems()) * 2.0;
    }

    ConvResult result;
    result.stats = timeGemmPhase(shape, method, &a_profile, &b_profile,
                                 input_bytes, weight_bytes);
    result.output = foldLoweredOutput(d, shape);
    return result;
}

ConvOperandEncoding
encodeConvOperands(const ConvShape &shape, ConvMethod method,
                   double weight_sparsity, double act_sparsity,
                   uint64_t seed, double weight_cluster,
                   double act_cluster)
{
    Rng rng(seed);
    const int64_t m = shape.loweredRows();
    const int64_t k = shape.loweredCols();
    const int64_t n = shape.out_c;

    // Activation-side profile. The lowered matrix replicates each
    // input pixel across kernel^2 columns, so its density equals the
    // feature map's; a (possibly clustered) random profile is a good
    // surrogate for the timing (validated against real lowering in
    // the tests).
    SparsityProfile a_profile =
        method == ConvMethod::DualSparseImplicit
            ? SparsityProfile::randomA(m, k, 32, 1.0 - act_sparsity,
                                       act_cluster, rng)
            : SparsityProfile::denseA(m, k, 32);
    SparsityProfile b_profile = SparsityProfile::randomA(
        n, k, 32, 1.0 - weight_sparsity, weight_cluster, rng);

    double input_bytes;
    const double input_elems =
        static_cast<double>(shape.inputElems());
    if (isImplicitSparse(method)) {
        // Bitmap-encoded feature map: 1 bit per element + FP16
        // non-zeros + per-row offsets.
        const double act_density =
            method == ConvMethod::DualSparseImplicit
                ? 1.0 - act_sparsity
                : 1.0;
        input_bytes = input_elems * (1.0 / 8.0) +
                      input_elems * act_density * 2.0 +
                      static_cast<double>(shape.batch) * shape.in_c *
                          shape.in_h * 4.0;
    } else {
        input_bytes = input_elems * 2.0;
    }

    double weight_bytes;
    switch (method) {
      case ConvMethod::DenseExplicit:
      case ConvMethod::DenseImplicit:
        weight_bytes = static_cast<double>(k) * n * 2.0;
        break;
      case ConvMethod::SingleSparseExplicit:
        weight_bytes = static_cast<double>(k) * n *
                       (1.0 - kZhuPruneRatio) * 2.5;
        break;
      default:
        weight_bytes = static_cast<double>(b_profile.encodedBytes(32));
    }

    return ConvOperandEncoding{std::move(a_profile),
                               std::move(b_profile), input_bytes,
                               weight_bytes};
}

KernelStats
ConvExecutor::timeEncoded(const ConvShape &shape, ConvMethod method,
                          const ConvOperandEncoding &enc) const
{
    return timeGemmPhase(shape, method, &enc.a, &enc.b,
                         enc.input_bytes, enc.weight_bytes);
}

KernelStats
ConvExecutor::timeOnly(const ConvShape &shape, ConvMethod method,
                       double weight_sparsity, double act_sparsity,
                       uint64_t seed, double weight_cluster,
                       double act_cluster) const
{
    return timeEncoded(shape, method,
                       encodeConvOperands(shape, method,
                                          weight_sparsity, act_sparsity,
                                          seed, weight_cluster,
                                          act_cluster));
}

} // namespace dstc
