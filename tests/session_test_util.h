/**
 * @file
 * Session-request one-liners shared by the test suites: each helper
 * builds the KernelRequest a test point needs and runs it through
 * the plan-execute API. Functional helpers return the full
 * KernelReport so call sites can read values (`*report.d`,
 * `*report.output`) and stats from one run.
 */
#ifndef DSTC_TESTS_SESSION_TEST_UTIL_H
#define DSTC_TESTS_SESSION_TEST_UTIL_H

#include "core/method_map.h"
#include "core/session.h"

namespace dstc {
namespace testutil {

/** Dual-side SpGEMM over concrete operands (functional + timed). */
inline KernelReport
spgemm(Session &session, const Matrix<float> &a,
       const Matrix<float> &b, const SpGemmOptions &options = {})
{
    KernelRequest req =
        KernelRequest::gemm(a, b).withMethod(Method::DualSparse);
    req.gemm_options = options;
    return session.run(req);
}

/** Dual-side SpGEMM over pre-encoded two-level operands. */
inline KernelReport
spgemmEncoded(Session &session, const TwoLevelBitmapMatrix &a,
              const TwoLevelBitmapMatrix &b,
              const SpGemmOptions &options = {})
{
    KernelRequest req;
    req.kind = KernelRequest::Kind::Gemm;
    req.method = Method::DualSparse;
    req.m = a.rows();
    req.n = b.cols();
    req.k = a.cols();
    req.a = a;
    req.b = b;
    req.gemm_options = options;
    return session.run(req);
}

/** Dual-side SpGEMM, timing only, from popcount profiles. */
inline KernelStats
spgemmTime(Session &session, const SparsityProfile &a,
           const SparsityProfile &b,
           const SpGemmOptions &options = {})
{
    KernelRequest req =
        KernelRequest::gemm(a, b).withMethod(Method::DualSparse);
    req.gemm_options = options;
    return session.run(req).stats;
}

/** Functional convolution under any Fig. 22 strategy. */
inline KernelReport
conv(Session &session, const Tensor4d &input,
     const Matrix<float> &weights, const ConvShape &shape,
     ConvMethod method)
{
    KernelRequest req = KernelRequest::conv(input, weights, shape);
    splitConvMethod(method, &req.method, &req.lowering);
    return session.run(req);
}

/** Convolution timing from shape + sparsity operating point. */
inline KernelStats
convTime(Session &session, const ConvShape &shape, ConvMethod method,
         double weight_sparsity, double act_sparsity,
         uint64_t seed = 1, double weight_cluster = 1.0,
         double act_cluster = 1.0)
{
    KernelRequest req =
        KernelRequest::conv(shape, weight_sparsity, act_sparsity)
            .withSeed(seed)
            .withClusters(act_cluster, weight_cluster);
    splitConvMethod(method, &req.method, &req.lowering);
    return session.run(req).stats;
}

/** CUTLASS-like dense GEMM time. */
inline KernelStats
denseGemmTime(Session &session, int64_t m, int64_t n, int64_t k,
              DataType dtype = DataType::Fp16)
{
    return session
        .run(KernelRequest::gemm(m, n, k)
                 .withMethod(Method::Dense)
                 .withDataType(dtype))
        .stats;
}

/** Vector-wise sparse TC [72] GEMM time. */
inline KernelStats
zhuGemmTime(Session &session, int64_t m, int64_t n, int64_t k,
            double weight_sparsity)
{
    return session
        .run(KernelRequest::gemm(m, n, k, 0.0, weight_sparsity)
                 .withMethod(Method::ZhuSparse))
        .stats;
}

/** cuSPARSE-like CSR SpGEMM expected time at given densities. */
inline KernelStats
cusparseTime(Session &session, int64_t m, int64_t n, int64_t k,
             double density_a, double density_b)
{
    return session
        .run(KernelRequest::gemm(m, n, k, 1.0 - density_a,
                                 1.0 - density_b)
                 .withMethod(Method::CusparseLike))
        .stats;
}

} // namespace testutil
} // namespace dstc

#endif // DSTC_TESTS_SESSION_TEST_UTIL_H
