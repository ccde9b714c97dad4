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

/** Printable name matching the paper's legend. */
const char *convMethodName(ConvMethod method);

/** Knobs of the functional convolution execution. */
struct ConvOptions
{
    /**
     * Worker threads of the word-parallel pipeline (the lowered-
     * column loop, the A-operand tiling and the SpGEMM output-tile
     * loop), mirroring SpGemmOptions::num_workers: 0 uses the
     * process-shared pool (all hardware threads), 1 runs serially in
     * the caller, N caps the parallelism at N threads. Results and
     * stats are bitwise identical for every setting — per-tile
     * outcomes are reduced in tile order.
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
 * Encoded operands of a timing-only convolution: the activation /
 * weight popcount profiles plus each side's DRAM footprint under the
 * method's encoding. Building this is the encode stage of a conv
 * ExecutionPlan; it is pure in (shape, method, sparsities, clusters,
 * seed), which makes it cacheable across repeated layers.
 */
struct ConvOperandEncoding
{
    SparsityProfile a; ///< lowered activations (A side)
    SparsityProfile b; ///< flattened weights (B side)
    double input_bytes = 0.0;
    double weight_bytes = 0.0;
};

/**
 * Synthesize the operand encoding of (shape, method) at a sparsity
 * operating point. Deterministic per @p seed; exactly the encoding
 * ConvExecutor::timeOnly uses internally.
 */
ConvOperandEncoding
encodeConvOperands(const ConvShape &shape, ConvMethod method,
                   double weight_sparsity, double act_sparsity,
                   uint64_t seed = 1, double weight_cluster = 1.0,
                   double act_cluster = 1.0);

/** Runs convolution layers on the modeled device. */
class ConvExecutor
{
  public:
    explicit ConvExecutor(const GpuConfig &cfg);

    /**
     * Execute a convolution functionally and return its simulated
     * time. @p weights is (out_c) x (in_c * kernel * kernel).
     *
     * The implicit-sparse methods run the word-parallel pipeline:
     * the bitmap lowering is re-tiled straight into the two-level
     * SpGEMM operand (no dense lowered matrix, no per-pixel decode)
     * and the values-only output-tile loop
     * (SpGemmDevice::multiplyValues) partitions over
     * ConvOptions::num_workers. The stats are the conv timing model
     * over the lowered operands' popcount profiles. Output values
     * and stats are bit-for-bit identical to runScalar for every
     * worker count.
     */
    ConvResult run(const Tensor4d &input, const Matrix<float> &weights,
                   const ConvShape &shape, ConvMethod method,
                   const ConvOptions &options = {}) const;

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
     * Execute the timing model over a pre-built operand encoding
     * (see encodeConvOperands). timeOnly == encode + timeEncoded.
     */
    KernelStats timeEncoded(const ConvShape &shape, ConvMethod method,
                            const ConvOperandEncoding &enc) const;

    const GpuConfig &config() const { return cfg_; }

  private:
    /**
     * Shared composition: compute side per method, memory side from
     * the convolution traffic model. @p a_profile / @p b_profile are
     * only consulted by the implicit-sparse methods; @p input_bytes
     * and @p weight_bytes already reflect each method's encoding.
     */
    KernelStats timeGemmPhase(const ConvShape &shape, ConvMethod method,
                              const SparsityProfile *a_profile,
                              const SparsityProfile *b_profile,
                              double input_bytes,
                              double weight_bytes) const;

    /**
     * The lowered baseline path the explicit / dense-implicit
     * strategies execute (dense im2col + FP16 reference GEMM). Also
     * the non-implicit-sparse half of runScalar, so the production
     * delegation and the reference pin share one definition.
     */
    ConvResult runLowered(const Tensor4d &input,
                          const Matrix<float> &weights,
                          const ConvShape &shape, ConvMethod method,
                          const ConvOptions &options) const;

    GpuConfig cfg_;
};

} // namespace dstc

#endif // DSTC_CONV_SPCONV_H
