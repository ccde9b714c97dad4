/**
 * @file
 * DRAM traffic and transfer-time model. Kernel time is the maximum of
 * compute time and memory time plus a launch overhead (a roofline
 * composition), which captures the paper's observation that small
 * layers are bound by data movement (Sec. VI-D).
 */
#ifndef DSTC_TIMING_MEMORY_MODEL_H
#define DSTC_TIMING_MEMORY_MODEL_H

#include <cstdint>

#include "timing/gpu_config.h"

namespace dstc {

/** Traffic/time estimates for tiled kernels on the modeled GPU. */
class MemoryModel
{
  public:
    explicit MemoryModel(const GpuConfig &cfg) : cfg_(cfg) {}

    /** Microseconds to move @p bytes at sustained DRAM bandwidth. */
    double dramTimeUs(double bytes) const;

    /**
     * DRAM traffic of a GEMM tiled in 128 x 128 thread blocks (the
     * CUTLASS-like tile). @p bytes_a / @p bytes_b / @p bytes_d are
     * the *single-copy* footprints of each operand (already
     * reflecting any sparse encoding). Operands are re-read once per
     * opposing block stripe, damped by the L2 hit rate.
     *
     * @param m,n     output dimensions (elements)
     */
    double gemmTrafficBytes(int64_t m, int64_t n, double bytes_a,
                            double bytes_b, double bytes_d) const;

    /**
     * DRAM traffic of a convolution. With implicit im2col the input
     * is read ~once (sliding-window reuse is caught on chip); with
     * explicit im2col the lowered matrix (inflation x input bytes) is
     * first written then re-read by the GEMM.
     */
    double convTrafficBytes(double input_bytes, double weight_bytes,
                            double output_bytes, double inflation,
                            bool explicit_im2col) const;

    const GpuConfig &config() const { return cfg_; }

  private:
    GpuConfig cfg_;
};

} // namespace dstc

#endif // DSTC_TIMING_MEMORY_MODEL_H
