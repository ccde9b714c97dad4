/**
 * @file
 * BERT-base encoder layer on the dual-side sparse Tensor Core: all
 * four GEMMs of one transformer block with movement-pruned weights,
 * comparing Dense / Single Sparse / Dual Sparse execution — the
 * Fig. 22 BERT workflow at full layer scale, run as one batched
 * Session workload (12 kernels, one runBatch call).
 *
 * Build & run:  ./build/examples/bert_encoder
 */
#include <cstdio>
#include <vector>

#include "core/session.h"
#include "model/zoo.h"

int
main()
{
    using namespace dstc;
    Session session;
    DnnModel bert = makeBertBase();

    std::printf("BERT-base encoder block, seq len 128, movement-pruned "
                "weights (Table II)\n\n");
    std::printf("%-10s %-16s %10s %14s %13s\n", "layer", "m x n x k",
                "dense(us)", "single(x)", "dual(x)");

    // One request per (layer, method); the whole block runs as a
    // single batch on the process-shared pool.
    const std::vector<Method> methods = {Method::Dense,
                                         Method::ZhuSparse,
                                         Method::DualSparse};
    std::vector<KernelRequest> requests;
    uint64_t seed = 2024;
    for (const auto &layer : bert.gemm_layers) {
        for (Method method : methods) {
            // Movement pruning concentrates the surviving weights
            // into whole heads/neurons, so the pattern is clustered.
            KernelRequest req =
                KernelRequest::gemm(layer.m, layer.n, layer.k,
                                    layer.act_sparsity,
                                    layer.weight_sparsity)
                    .withMethod(method)
                    .withClusters(layer.act_cluster,
                                  layer.weight_cluster)
                    .withSeed(seed)
                    .withTag(layer.name);
            requests.push_back(std::move(req));
        }
        ++seed;
    }
    std::vector<KernelReport> reports =
        session.runBatch(requests);

    double dense_total = 0.0, single_total = 0.0, dual_total = 0.0;
    size_t idx = 0;
    for (const auto &layer : bert.gemm_layers) {
        const double dense = reports[idx++].timeUs();
        const double single = reports[idx++].timeUs();
        const double dual = reports[idx++].timeUs();
        dense_total += dense;
        single_total += single;
        dual_total += dual;
        std::printf("%-10s %4lld x %4lld x %4lld %10.1f %13.2fx %12.2fx\n",
                    layer.name.c_str(), static_cast<long long>(layer.m),
                    static_cast<long long>(layer.n),
                    static_cast<long long>(layer.k), dense,
                    dense / single, dense / dual);
    }

    std::printf("\nfull block: dense %.1f us | single sparse %.2fx | "
                "dual sparse %.2fx\n",
                dense_total, dense_total / single_total,
                dense_total / dual_total);
    std::printf("\nThe Single Sparse baseline is capped by its fixed "
                "75%% pruning format, while the >90%% movement-pruned "
                "weights let the dual-side design keep scaling "
                "(Sec. VI-D).\n");
    return 0;
}
