/**
 * @file
 * Quickstart for the Session / KernelRegistry API: multiply two
 * sparse matrices on the dual-side sparse Tensor Core model, verify
 * against a reference, let Method::Auto pick the backend, and
 * inspect the timing breakdown.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "common/rng.h"
#include "core/session.h"
#include "tensor/reference.h"

int
main()
{
    using namespace dstc;

    // 1. A session over the V100 machine model. It owns the kernel
    //    registry (the five backends) and the encoding cache.
    Session session;

    // 2. Two sparse operands: 70%-sparse activations x 80%-sparse
    //    weights, 512x512x512.
    Rng rng(1234);
    Matrix<float> activations = randomSparseMatrix(512, 512, 0.70, rng);
    Matrix<float> weights = randomSparseMatrix(512, 512, 0.80, rng);

    // 3. Run the dual-side SpGEMM (functional + timed).
    KernelRequest req = KernelRequest::gemm(activations, weights)
                            .withMethod(Method::DualSparse);
    KernelReport result = session.run(req);

    // 4. Verify the functional result against the FP16 reference.
    const double err =
        maxAbsDiff(*result.d, refGemmFp16(activations, weights));
    std::printf("max |error| vs reference: %.2e  (%s)\n", err,
                err < 1e-4 ? "OK" : "FAIL");

    // 5. Compare with the dense tensor-core baseline through the
    //    same API.
    KernelRequest dense_req =
        KernelRequest::gemm(512, 512, 512).withMethod(Method::Dense);
    const double dense_us = session.run(dense_req).timeUs();
    const KernelStats &stats = result.stats;
    std::printf("\n-- timing --\n");
    std::printf("dual-side SpGEMM : %8.1f us (%s bound)\n",
                stats.timeUs(),
                stats.bound == Bound::Compute ? "compute" : "memory");
    std::printf("dense (CUTLASS)  : %8.1f us\n", dense_us);
    std::printf("speedup          : %8.2fx\n",
                dense_us / stats.timeUs());

    // 6. Or let the registry decide: Method::Auto plans every exact
    //    backend and picks the profiled winner.
    KernelRequest auto_req = KernelRequest::gemm(activations, weights)
                                 .withMethod(Method::Auto);
    KernelReport chosen = session.run(auto_req);
    std::printf("\nMethod::Auto picked: %s (%.1f us; operand "
                "encodings %s)\n",
                chosen.backend.c_str(), chosen.timeUs(),
                chosen.encode_cache_hit ? "reused from cache"
                                        : "freshly encoded");

    std::printf("\n-- instruction mix --\n");
    std::printf("OHMMA issued  : %lld\n",
                static_cast<long long>(stats.mix.ohmma_issued));
    std::printf("OHMMA skipped : %lld (predication, Fig. 15)\n",
                static_cast<long long>(stats.mix.ohmma_skipped));
    std::printf("BOHMMA        : %lld (bitmap products)\n",
                static_cast<long long>(stats.mix.bohmma));
    std::printf("warp tiles    : %lld run, %lld skipped by the "
                "warp-bitmap\n",
                static_cast<long long>(stats.warp_tiles),
                static_cast<long long>(stats.warp_tiles_skipped));
    return err < 1e-4 ? 0 : 1;
}
