#include "conv/spconv.h"

#include <algorithm>
#include <utility>

#include "baselines/zhu_sparse_tc.h"
#include "common/logging.h"
#include "gemm/dense_gemm.h"
#include "gemm/spgemm_device.h"
#include "im2col/dense_im2col.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"
#include "timing/memory_model.h"

namespace dstc {

namespace {

bool
isExplicit(ConvMethod method)
{
    return method == ConvMethod::DenseExplicit ||
           method == ConvMethod::SingleSparseExplicit;
}

/**
 * The encoding of the three methods that time analytically from the
 * shape: no profiles, the feature map as raw FP16, and the weights as
 * raw FP16 or, under the vector-wise format, its fixed 25% of values
 * at 2.5 bytes each (FP16 value plus index metadata).
 */
ConvOperandEncoding
analyticEncoding(const ConvShape &shape, ConvMethod method)
{
    const double weight_elems =
        static_cast<double>(shape.loweredCols()) * shape.out_c;
    ConvOperandEncoding enc;
    enc.input_bytes = static_cast<double>(shape.inputElems()) * 2.0;
    enc.weight_bytes =
        method == ConvMethod::SingleSparseExplicit
            ? weight_elems * (1.0 - kZhuPruneRatio) * 2.5
            : weight_elems * 2.0;
    return enc;
}

void
checkWeights(const Matrix<float> &weights, const ConvShape &shape)
{
    DSTC_ASSERT(weights.rows() == shape.out_c &&
                weights.cols() == shape.loweredCols(),
                "weights must be out_c x (in_c*k*k)");
}

} // namespace

ConvExecutor::ConvExecutor(const GpuConfig &cfg) : cfg_(cfg) {}

KernelStats
ConvExecutor::timeEncoded(const ConvShape &shape, ConvMethod method,
                          const ConvOperandEncoding &enc,
                          const ConvOptions &options) const
{
    KernelStats stats;
    switch (method) {
      case ConvMethod::DenseExplicit:
      case ConvMethod::DenseImplicit:
        stats = DenseGemmDevice(cfg_).timeOnly(
            shape.loweredRows(), shape.out_c, shape.loweredCols());
        break;
      case ConvMethod::SingleSparseExplicit:
        // The fixed-rate vector-wise design: weights are pruned to
        // the 75% format whatever their natural sparsity.
        stats = zhuGemm(cfg_, shape.loweredRows(), shape.out_c,
                        shape.loweredCols());
        break;
      case ConvMethod::SingleSparseImplicit:
      case ConvMethod::DualSparseImplicit: {
        DSTC_ASSERT(enc.a && enc.b,
                    "implicit-sparse conv timing needs both profiles");
        SpGemmOptions gemm_opts;
        gemm_opts.num_workers = options.num_workers;
        stats = SpGemmDevice(cfg_).timeFromProfiles(*enc.a, *enc.b,
                                                    gemm_opts);
        break;
      }
    }
    stats.name = nameOf(kConvMethods, method);

    // Memory side: convolution traffic replaces the generic GEMM
    // traffic. Explicit methods materialize the lowered matrix in
    // DRAM (write + read); implicit ones read the original layout.
    MemoryModel mem(cfg_);
    const double output_bytes =
        static_cast<double>(shape.outputElems()) * 2.0;
    const double inflation = std::max(1.0, shape.inflation());
    stats.dram_bytes = mem.convTrafficBytes(
        enc.input_bytes, enc.weight_bytes, output_bytes, inflation,
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
    EncodedFeatureMap fmap;
    ConvResult result;
    result.stats = timeEncoded(
        shape, method,
        encode(input, weights, shape, method, options, &fmap), options);
    result.output = values(input, weights, shape, method, options,
                           std::move(fmap));
    return result;
}

ConvOperandEncoding
ConvExecutor::encode(const Tensor4d &input, const Matrix<float> &weights,
                     const ConvShape &shape, ConvMethod method,
                     const ConvOptions &options,
                     EncodedFeatureMap *fmap) const
{
    checkWeights(weights, shape);
    if (!isImplicitSparse(method))
        return analyticEncoding(shape, method);

    BitmapFeatureMap bitmap = BitmapFeatureMap::encode(input);
    ConvOperandEncoding enc;
    // The flattened weights' 32-wide row slices are the stored
    // weights' 32-tall column slices: the B profile reads them in
    // place, without the transpose.
    enc.b = SparsityProfile::fromMatrixAWord(weights, 32);
    enc.input_bytes = static_cast<double>(bitmap.encodedBytes());
    enc.weight_bytes = static_cast<double>(enc.b->encodedBytes(32));
    if (method == ConvMethod::DualSparseImplicit) {
        const LoweredFeatureMap &lowered =
            fmap->emplace<LoweredFeatureMap>(im2colFromBitmap(
                bitmap, shape, true, options.num_workers));
        enc.a = SparsityProfile::fromLowered(lowered, 32);
    } else {
        enc.a = SparsityProfile::denseA(shape.loweredRows(),
                                        shape.loweredCols(), 32);
        *fmap = std::move(bitmap);
    }
    return enc;
}

Tensor4d
ConvExecutor::values(const Tensor4d &input, const Matrix<float> &weights,
                     const ConvShape &shape, ConvMethod method,
                     const ConvOptions &options,
                     EncodedFeatureMap fmap) const
{
    checkWeights(weights, shape);
    const Matrix<float> wt = flattenWeightsTransposed(weights);
    if (!isImplicitSparse(method)) {
        // The explicit / dense-implicit baselines: dense im2col and
        // the FP16 reference GEMM (no parallel tile loop).
        const Matrix<float> dense = im2colExplicit(input, shape);
        if (method == ConvMethod::DenseImplicit) {
            // Validate the outer-friendly generation order against
            // the row-major one on the real data.
            DSTC_ASSERT(maxAbsDiff(dense, im2colOuterFriendly(
                                              input, shape)) == 0.0,
                        "outer-friendly im2col diverged");
        }
        return foldLoweredOutput(refGemmFp16(dense, wt), shape);
    }

    // The word-parallel implicit pipeline: the bitmap lowering is
    // re-tiled straight into the two-level SpGEMM operand, then the
    // pooled output-tile loop computes D.
    if (std::holds_alternative<std::monostate>(fmap))
        fmap = BitmapFeatureMap::encode(input);
    if (const auto *bitmap = std::get_if<BitmapFeatureMap>(&fmap))
        fmap = im2colFromBitmap(*bitmap, shape, true,
                                options.num_workers);
    const LoweredFeatureMap &lowered = std::get<LoweredFeatureMap>(fmap);
    SpGemmOptions gemm_opts;
    gemm_opts.num_workers = options.num_workers;
    const TwoLevelBitmapMatrix a_enc = lowered.toTwoLevel(
        kWarpTile, gemm_opts.tile_k, options.num_workers);
    const TwoLevelBitmapMatrix b_enc =
        wordEncodeTwoLevel(wt, gemm_opts.tile_k, kWarpTile, Major::Row,
                           options.num_workers);
    return foldLoweredOutput(
        SpGemmDevice(cfg_).multiplyValues(a_enc, b_enc, gemm_opts),
        shape);
}

ConvOperandEncoding
encodeConvOperands(const ConvShape &shape, ConvMethod method,
                   double weight_sparsity, double act_sparsity,
                   uint64_t seed, double weight_cluster,
                   double act_cluster)
{
    if (!isImplicitSparse(method))
        return analyticEncoding(shape, method);

    Rng rng(seed);
    const int64_t m = shape.loweredRows();
    const int64_t k = shape.loweredCols();
    const bool dual = method == ConvMethod::DualSparseImplicit;

    // The lowered matrix replicates each input pixel across kernel^2
    // columns, so its density equals the feature map's: a (possibly
    // clustered) random profile at that density stands in for it.
    ConvOperandEncoding enc;
    enc.a = dual ? SparsityProfile::randomA(m, k, 32, 1.0 - act_sparsity,
                                            act_cluster, rng)
                 : SparsityProfile::denseA(m, k, 32);
    enc.b = SparsityProfile::randomA(shape.out_c, k, 32,
                                     1.0 - weight_sparsity,
                                     weight_cluster, rng);

    // Bitmap-encoded feature map: 1 bit per element + FP16 non-zeros
    // + per-row offsets. Single Sparse Implicit counts every element
    // as a value.
    const double input_elems =
        static_cast<double>(shape.inputElems());
    const double act_density = dual ? 1.0 - act_sparsity : 1.0;
    enc.input_bytes = input_elems * (1.0 / 8.0) +
                      input_elems * act_density * 2.0 +
                      static_cast<double>(shape.batch) * shape.in_c *
                          shape.in_h * 4.0;
    enc.weight_bytes = static_cast<double>(enc.b->encodedBytes(32));
    return enc;
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
