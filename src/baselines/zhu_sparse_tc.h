/**
 * @file
 * Sparse Tensor Core baseline [Zhu et al., MICRO'19] — the "Single
 * Sparse" comparison point of Figs. 21-22.
 *
 * Their design applies *vector-wise* structural pruning to the
 * weight matrix at a fixed 75% ratio and skips the pruned operand
 * lanes in the inner-product unit. Consequences the paper relies on:
 * the speedup over a dense kernel is a fixed ~1.86x (the hardware can
 * only exploit exactly 75%, and format overheads eat part of the 4x),
 * it cannot exploit sparsity beyond 75% even when the weights are
 * 90%+ sparse, and it cannot touch activation sparsity at all.
 */
#ifndef DSTC_BASELINES_ZHU_SPARSE_TC_H
#define DSTC_BASELINES_ZHU_SPARSE_TC_H

#include <cstdint>

#include "common/datatype.h"
#include "tensor/matrix.h"
#include "timing/gpu_config.h"
#include "timing/stats.h"

namespace dstc {

/** Fixed structural pruning ratio of the Sparse Tensor Core design. */
constexpr double kZhuPruneRatio = 0.75;

/** Length of the weight vectors the pruning keeps or drops lanes of. */
constexpr int kZhuVecLen = 16;

/** Effective speedup over the dense kernel after format overheads. */
constexpr double kZhuEffectiveSpeedup = 1.86;

/**
 * Timing of the vector-wise sparse GEMM: the dense tensor-core time
 * compressed by the fixed effective speedup on the compute side; the
 * weight operand moves at 25% plus index metadata. The weights'
 * actual sparsity is not an input: the pruning scheme pads or clamps
 * every B to the fixed 75% format, so the speedup stays fixed.
 */
KernelStats zhuGemm(const GpuConfig &cfg, int64_t m, int64_t n,
                    int64_t k, DataType dtype = DataType::Fp16);

/**
 * Functional counterpart: vector-wise prune B (kZhuVecLen-element
 * vectors) to the fixed ratio and multiply densely at the specs'
 * datatype (FP16 default; pruning selects on raw magnitudes).
 * Provided so the baseline's accuracy cost is inspectable; the
 * pruner itself lives in model/pruning.h.
 */
Matrix<float> zhuGemmFunctional(const Matrix<float> &a,
                                const Matrix<float> &b,
                                const QuantSpec &spec_a = {},
                                const QuantSpec &spec_b = {});

} // namespace dstc

#endif // DSTC_BASELINES_ZHU_SPARSE_TC_H
