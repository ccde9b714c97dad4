#include "baselines/ampere_sparse_tc.h"

#include "gemm/dense_gemm.h"
#include "model/pruning.h"
#include "tensor/reference.h"
#include "timing/memory_model.h"

namespace dstc {

KernelStats
ampereGemm(const GpuConfig &cfg, int64_t m, int64_t n, int64_t k,
           DataType dtype)
{
    DenseGemmDevice device(cfg);
    KernelStats stats = device.timeOnly(m, n, k, dtype);
    stats.name = "ampere_sparse_tc";
    stats.compute_us /= kAmpereEffectiveSpeedup;

    // Weights move condensed at 50% of the lane width plus 2 bits of
    // lane metadata per kept value; activations and output stay
    // dense at their datatype widths.
    MemoryModel mem(cfg);
    const double in_bytes = dataTypeValueBytes(dtype);
    const double bytes_a = static_cast<double>(m) * k * in_bytes;
    const double bytes_b = static_cast<double>(k) * n *
                           (1.0 - kAmperePruneRatio) *
                           (in_bytes + 0.25);
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
ampereGemmFunctional(const Matrix<float> &a, const Matrix<float> &b,
                     const QuantSpec &spec_a, const QuantSpec &spec_b)
{
    return refGemmQuant(a, prune2of4(b), spec_a, spec_b);
}

} // namespace dstc
