/**
 * @file
 * The SpCONV executor: runs a convolution layer under each of the
 * five strategies compared in Fig. 22.
 *
 *  - DenseExplicit        CUTLASS GEMM after an explicit im2col
 *  - DenseImplicit        cuDNN-style fused (implicit) im2col + GEMM
 *  - SingleSparseExplicit Sparse Tensor Core [72] + explicit im2col
 *  - SingleSparseImplicit our bitmap implicit im2col, weight-side
 *                         sparsity only (activations treated dense)
 *  - DualSparseImplicit   the full dual-side sparse Tensor Core
 *
 * All strategies compute the same convolution (given the same
 * weights); they differ only in execution time. Structural pruning
 * required by a baseline (e.g. Zhu's vector-wise 75%) is the
 * caller's responsibility so the numeric semantics stay explicit.
 */
#ifndef DSTC_CONV_SPCONV_H
#define DSTC_CONV_SPCONV_H

#include <optional>
#include <variant>

#include "common/vocabulary.h"
#include "gemm/sparsity_profile.h"
#include "im2col/bitmap_im2col.h"
#include "im2col/conv_shape.h"
#include "tensor/matrix.h"
#include "tensor/tensor4d.h"
#include "timing/gpu_config.h"
#include "timing/stats.h"

namespace dstc {

/** Convolution execution strategy (the Fig. 22 legend). */
enum class ConvMethod
{
    DenseExplicit,
    DenseImplicit,
    SingleSparseExplicit,
    SingleSparseImplicit,
    DualSparseImplicit,
};

/** The conv strategies under the paper's legend names. No CLI reads
 *  a ConvMethod, so the legend name is each row's only string. */
inline constexpr Term<ConvMethod> kConvMethods[] = {
    {ConvMethod::DenseExplicit, "Dense Explicit"},
    {ConvMethod::DenseImplicit, "Dense Implicit"},
    {ConvMethod::SingleSparseExplicit, "Single Sparse Explicit"},
    {ConvMethod::SingleSparseImplicit, "Single Sparse Implicit"},
    {ConvMethod::DualSparseImplicit, "Dual Sparse Implicit"},
};
static_assert(listsEveryValue(kConvMethods,
                              ConvMethod::DualSparseImplicit));

/** Whether @p method runs the bitmap implicit im2col and times its
 *  compute side from popcount profiles (Single / Dual Sparse
 *  Implicit). The other three methods time analytically. */
inline bool
isImplicitSparse(ConvMethod method)
{
    return method == ConvMethod::SingleSparseImplicit ||
           method == ConvMethod::DualSparseImplicit;
}

/** Knobs of the functional convolution execution. */
struct ConvOptions
{
    /**
     * Worker threads of the word-parallel pipeline (the lowered-
     * column loop, the A-operand tiling and the SpGEMM output-tile
     * loop), mirroring SpGemmOptions::num_workers: 0 uses the
     * process-shared pool (all hardware threads), 1 runs serially in
     * the caller, N caps the parallelism at N threads. Outputs and
     * stats are bitwise identical for every setting: each lowered
     * column and output tile is computed whole by one worker, and
     * the stats come from worker-independent popcount profiles.
     */
    int num_workers = 0;
};

/** Output of a convolution run. */
struct ConvResult
{
    Tensor4d output;   ///< valid when run functionally
    KernelStats stats;
};

/**
 * A convolution's operands as the timing model reads them: each
 * side's DRAM footprint under the method's encoding and, for the two
 * implicit-sparse methods only, the popcount profiles of the lowered
 * activations (A) and the flattened weights (B). The other three
 * methods time analytically from the shape and carry no profiles.
 * encodeConvOperands synthesizes it at a sparsity operating point
 * (cacheable: pure in shape, method, sparsities, clusters and seed);
 * ConvExecutor::encode reads it off real operands. Either way
 * ConvExecutor::timeEncoded is the one conv clock.
 */
struct ConvOperandEncoding
{
    std::optional<SparsityProfile> a; ///< lowered activations (A side)
    std::optional<SparsityProfile> b; ///< flattened weights (B side)
    double input_bytes = 0.0;
    double weight_bytes = 0.0;
};

/**
 * Synthesize the operand encoding of (shape, method) at a sparsity
 * operating point: random profiles drawn from @p seed stand in for
 * the lowered operands (the timing-only sweeps have no values).
 * Deterministic per @p seed; exactly the encoding
 * ConvExecutor::timeOnly times.
 */
ConvOperandEncoding
encodeConvOperands(const ConvShape &shape, ConvMethod method,
                   double weight_sparsity, double act_sparsity,
                   uint64_t seed = 1, double weight_cluster = 1.0,
                   double act_cluster = 1.0);

/**
 * What ConvExecutor::encode read of a real feature map, handed on to
 * ConvExecutor::values so the map is not encoded twice: the bitmap
 * feature map (Single Sparse Implicit) or its bitmap lowering (Dual
 * Sparse). Empty for the analytic methods, and when values() runs
 * without encode().
 */
using EncodedFeatureMap =
    std::variant<std::monostate, BitmapFeatureMap, LoweredFeatureMap>;

/** Runs convolution layers on the modeled device. */
class ConvExecutor
{
  public:
    explicit ConvExecutor(const GpuConfig &cfg);

    /**
     * Execute a convolution functionally and return its simulated
     * time. @p weights is (out_c) x (in_c * kernel * kernel).
     *
     * This is encode + timeEncoded + values: the stats are the one
     * conv timing model over the real operands' encoding, and the
     * implicit-sparse values come from the word-parallel pipeline.
     * Output values and stats are bit-for-bit identical to runScalar
     * for every worker count.
     */
    ConvResult run(const Tensor4d &input, const Matrix<float> &weights,
                   const ConvShape &shape, ConvMethod method,
                   const ConvOptions &options = {}) const;

    /**
     * Encode real operands as far as the timing model needs and no
     * further. Single Sparse Implicit reads the bitmap feature map's
     * footprint and the weights' profile, and stores the bitmap in
     * @p fmap. Dual Sparse also lowers the feature map through the
     * bitmap im2col for its A profile (read off the column bitmaps by
     * popcount) and stores that lowering in @p fmap instead. The
     * other methods are analytic and read neither operand.
     */
    ConvOperandEncoding encode(const Tensor4d &input,
                               const Matrix<float> &weights,
                               const ConvShape &shape, ConvMethod method,
                               const ConvOptions &options,
                               EncodedFeatureMap *fmap) const;

    /**
     * The values half of run(): the output tensor alone. The
     * implicit-sparse methods re-tile the bitmap lowering straight
     * into the two-level SpGEMM operand (no dense lowered matrix, no
     * per-pixel decode) and run the values-only output-tile loop
     * (SpGemmDevice::multiplyValues) over ConvOptions::num_workers;
     * they start from what encode() kept of @p input in @p fmap, and
     * encode and lower it here only as far as that is empty. The
     * explicit / dense-implicit baselines lower densely and run the
     * FP16 reference GEMM.
     */
    Tensor4d values(const Tensor4d &input, const Matrix<float> &weights,
                    const ConvShape &shape, ConvMethod method,
                    const ConvOptions &options,
                    EncodedFeatureMap fmap = {}) const;

    /**
     * The pre-word-parallel path, kept verbatim as the reference
     * model: the lowered feature map is decoded to a dense matrix,
     * profiled and re-encoded element-by-element before the GEMM.
     * The equivalence tests assert run() reproduces its outputs and
     * stats bit-for-bit; bench/micro_spconv reports speedup against
     * it. (Its GEMM honors options.num_workers so comparisons
     * isolate the pipeline change from raw thread count.)
     *
     * Defined in the test-only `dstc_reference` library (see
     * reference/scalar_spconv.cc): the shipped library only carries
     * the word-parallel pipeline plus the lowered baseline path the
     * explicit / dense-implicit strategies execute.
     */
    ConvResult runScalar(const Tensor4d &input,
                         const Matrix<float> &weights,
                         const ConvShape &shape, ConvMethod method,
                         const ConvOptions &options = {}) const;

    /**
     * Timing-only path for the model sweeps: synthesizes an input at
     * @p act_sparsity and weights at @p weight_sparsity, then times
     * @p method without computing values. The cluster factors shape
     * the non-zero distribution (>= 1, 1 = uniform Bernoulli; see
     * gemm/sparsity_profile.h). Deterministic for a given @p seed.
     */
    KernelStats timeOnly(const ConvShape &shape, ConvMethod method,
                         double weight_sparsity, double act_sparsity,
                         uint64_t seed = 1, double weight_cluster = 1.0,
                         double act_cluster = 1.0) const;

    /**
     * The conv timing model over an operand encoding: compute side
     * per method (the implicit-sparse ones from the profiles, over
     * @p options.num_workers), memory side from the convolution
     * traffic model over the encoding's footprints. timeOnly ==
     * encodeConvOperands + timeEncoded, and run()'s stats == encode
     * + timeEncoded.
     */
    KernelStats timeEncoded(const ConvShape &shape, ConvMethod method,
                            const ConvOperandEncoding &enc,
                            const ConvOptions &options = {}) const;

    const GpuConfig &config() const { return cfg_; }

  private:
    GpuConfig cfg_;
};

} // namespace dstc

#endif // DSTC_CONV_SPCONV_H
