#include "gemm/dense_gemm.h"

#include <algorithm>

#include "common/bitutil.h"
#include "gemm/wmma.h"

namespace dstc {

DenseGemmDevice::DenseGemmDevice(const GpuConfig &cfg)
    : cfg_(cfg), memory_model_(cfg)
{
}

Matrix<float>
DenseGemmDevice::multiply(const Matrix<float> &a, const Matrix<float> &b,
                          const QuantSpec &spec_a,
                          const QuantSpec &spec_b) const
{
    DSTC_ASSERT(spec_a.dtype == spec_b.dtype,
                "operand datatypes must match");
    DSTC_ASSERT(a.cols() == b.rows());
    const int m = a.rows(), k = a.cols(), n = b.cols();

    Matrix<float> d(m, n);

    // Tile the problem into 16x16x16 WMMA fragments; K tiles run in
    // increasing order so accumulation order matches the references.
    constexpr int kT = 16;
    for (int i0 = 0; i0 < m; i0 += kT) {
        for (int j0 = 0; j0 < n; j0 += kT) {
            const int mm = std::min(kT, m - i0);
            const int nn = std::min(kT, n - j0);
            Matrix<float> acc(mm, nn);
            for (int k0 = 0; k0 < k; k0 += kT) {
                const int kk = std::min(kT, k - k0);
                Matrix<float> a_frag(mm, kk), b_frag(kk, nn);
                for (int r = 0; r < mm; ++r)
                    for (int c = 0; c < kk; ++c)
                        a_frag.at(r, c) = a.at(i0 + r, k0 + c);
                for (int r = 0; r < kk; ++r)
                    for (int c = 0; c < nn; ++c)
                        b_frag.at(r, c) = b.at(k0 + r, j0 + c);
                acc = wmmaInner(a_frag, b_frag, &acc, spec_a, spec_b);
            }
            for (int r = 0; r < mm; ++r)
                for (int c = 0; c < nn; ++c)
                    d.at(i0 + r, j0 + c) = acc.at(r, c);
        }
    }

    // Deferred integer output scaling: the WMMA tiles accumulated raw
    // codes; one sa * sb multiply per element restores the physical
    // scale (bitwise equal to the dual-sparse engine's pass).
    const float out_scale = QuantSpec::outputScale(spec_a, spec_b);
    if (out_scale != 1.0f) {
        for (float &v : d.data())
            v *= out_scale;
    }
    return d;
}

KernelStats
DenseGemmDevice::timeOnly(int64_t m, int64_t n, int64_t k,
                          DataType dtype) const
{
    DSTC_ASSERT(m > 0 && n > 0 && k > 0);
    KernelStats stats;
    stats.name = "dense_gemm";

    // Compute: every MAC is issued; the efficiency derating covers
    // scheduling bubbles and tail tiles of a tuned dense kernel. The
    // int8/int4 pipes retire 2x/4x the MACs per cycle (IMMA-style).
    const double macs = static_cast<double>(m) * n * k;
    const double cycles =
        macs / (cfg_.peakMacsPerCycle() * cfg_.dense_gemm_efficiency *
                dataTypeComputeScale(dtype));
    stats.compute_us = cycles / (cfg_.clock_ghz * 1e3);
    stats.mix.hmma = static_cast<int64_t>(
        ceilDiv<int64_t>(m, 8) * ceilDiv<int64_t>(n, 8) *
        ceilDiv<int64_t>(k, 4));

    // Memory: operands and output at the datatype's lane width,
    // block-tiled reuse.
    const double in_bytes = dataTypeValueBytes(dtype);
    const double bytes_a = static_cast<double>(m) * k * in_bytes;
    const double bytes_b = static_cast<double>(k) * n * in_bytes;
    const double bytes_d =
        static_cast<double>(m) * n * dataTypeOutputBytes(dtype);
    stats.dram_bytes =
        memory_model_.gemmTrafficBytes(m, n, bytes_a, bytes_b, bytes_d);
    stats.memory_us = memory_model_.dramTimeUs(stats.dram_bytes);
    stats.launch_us = cfg_.kernel_launch_us;
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

} // namespace dstc
