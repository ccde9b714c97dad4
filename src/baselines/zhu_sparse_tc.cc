#include "baselines/zhu_sparse_tc.h"

#include "gemm/dense_gemm.h"
#include "model/pruning.h"
#include "tensor/reference.h"

namespace dstc {

KernelStats
zhuGemm(const GpuConfig &cfg, int64_t m, int64_t n, int64_t k,
        DataType dtype)
{
    DenseGemmDevice device(cfg);
    KernelStats stats = device.timeOnly(m, n, k, dtype);
    stats.name = "zhu_sparse_tc";
    stats.compute_us /= kZhuEffectiveSpeedup;

    // Weight operand moves condensed: 25% of the values at the lane
    // width plus 4-bit per-value lane indices; activations and
    // output stay dense at their datatype widths.
    MemoryModel mem(cfg);
    const double in_bytes = dataTypeValueBytes(dtype);
    const double bytes_a = static_cast<double>(m) * k * in_bytes;
    const double bytes_b = static_cast<double>(k) * n *
                           (1.0 - kZhuPruneRatio) * (in_bytes + 0.5);
    const double bytes_d =
        static_cast<double>(m) * n * dataTypeOutputBytes(dtype);
    stats.dram_bytes =
        mem.gemmTrafficBytes(m, n, bytes_a, bytes_b, bytes_d);
    stats.memory_us = mem.dramTimeUs(stats.dram_bytes);
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

Matrix<float>
zhuGemmFunctional(const Matrix<float> &a, const Matrix<float> &b,
                  const QuantSpec &spec_a, const QuantSpec &spec_b)
{
    Matrix<float> pruned = vectorWisePrune(b, kZhuVecLen, kZhuPruneRatio);
    return refGemmQuant(a, pruned, spec_a, spec_b);
}

} // namespace dstc
