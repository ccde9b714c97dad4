/**
 * @file
 * Ampere-style 2:4 sparse Tensor Core baseline (Fig. 3b; refs [42],
 * [45] of the paper): the production design the paper positions
 * against.
 *
 * The A100 sparse Tensor Core requires the weight operand pruned to
 * the 2:4 structured pattern (two non-zeros in every four
 * consecutive elements) and doubles the effective math rate on that
 * operand. Like the vector-wise design, it cannot exploit sparsity
 * beyond its fixed 50%, and it cannot touch activation sparsity.
 * Included so the ablation benches can place the dual-side design
 * against both fixed-rate formats.
 */
#ifndef DSTC_BASELINES_AMPERE_SPARSE_TC_H
#define DSTC_BASELINES_AMPERE_SPARSE_TC_H

#include <cstdint>

#include "common/datatype.h"
#include "tensor/matrix.h"
#include "timing/gpu_config.h"
#include "timing/stats.h"

namespace dstc {

/** Fixed structured-pruning ratio of the 2:4 format. */
constexpr double kAmperePruneRatio = 0.5;

/**
 * Effective speedup of the 2:4 sparse path over the dense kernel:
 * the math rate doubles, but metadata handling and the selection
 * network keep the realized gain below 2x on real kernels.
 */
constexpr double kAmpereEffectiveSpeedup = 1.75;

/**
 * Timing of a 2:4 sparse GEMM: dense tensor-core time compressed by
 * the fixed effective speedup; the weight operand moves condensed at
 * 50% of the datatype's lane width plus 2-bit-per-value lane
 * metadata (the A100 format keeps the 2-bit indices at every
 * precision). The weights' actual sparsity is not an input: the
 * fixed-rate format cannot exploit sparsity beyond 50%.
 */
KernelStats ampereGemm(const GpuConfig &cfg, int64_t m, int64_t n,
                       int64_t k, DataType dtype = DataType::Fp16);

/**
 * Functional counterpart: 2:4-prune B (keep the two largest of every
 * four) and multiply densely at the specs' datatype (FP16 default).
 * Pruning selects on raw magnitudes, before quantization.
 */
Matrix<float> ampereGemmFunctional(const Matrix<float> &a,
                                   const Matrix<float> &b,
                                   const QuantSpec &spec_a = {},
                                   const QuantSpec &spec_b = {});

} // namespace dstc

#endif // DSTC_BASELINES_AMPERE_SPARSE_TC_H
