/**
 * @file
 * Dense tensor-core GEMM: the functional tiled-WMMA execution used
 * for validation and the analytic device timing shared by the
 * CUTLASS-like baseline.
 */
#ifndef DSTC_GEMM_DENSE_GEMM_H
#define DSTC_GEMM_DENSE_GEMM_H

#include <cstdint>

#include "common/datatype.h"
#include "tensor/matrix.h"
#include "timing/gpu_config.h"
#include "timing/memory_model.h"
#include "timing/stats.h"

namespace dstc {

/** Dense GEMM on the (inner- or outer-product) Tensor Core model. */
class DenseGemmDevice
{
  public:
    explicit DenseGemmDevice(const GpuConfig &cfg);

    /**
     * Functional tiled execution (16x16x16 WMMA tiles): the values
     * of a * b (timeOnly is the clock). @p outer_product selects the
     * OWMMA order; results are bitwise identical either way (see
     * gemm/wmma.h). Operands quantize through the specs (FP16 by
     * default); both must share a datatype. Integer specs accumulate
     * codes and apply the deferred sa * sb output scale once after
     * the K loop — dense and dual-sparse integer results are bitwise
     * equal.
     */
    Matrix<float> multiply(const Matrix<float> &a,
                           const Matrix<float> &b,
                           bool outer_product = false,
                           const QuantSpec &spec_a = {},
                           const QuantSpec &spec_b = {}) const;

    /**
     * Timing-only estimate for an m x n x k dense GEMM at the
     * configured dense efficiency (operands and output stored at the
     * datatype's lane width; int8/int4 double/quadruple the MAC
     * rate).
     */
    KernelStats timeOnly(int64_t m, int64_t n, int64_t k,
                         DataType dtype = DataType::Fp16) const;

  private:
    GpuConfig cfg_;
    MemoryModel memory_model_;
};

} // namespace dstc

#endif // DSTC_GEMM_DENSE_GEMM_H
