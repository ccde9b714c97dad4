#include "model/runner.h"

#include "core/method_map.h"

namespace dstc {

const char *
legendName(ModelMethod method)
{
    const ModelStrategy &s = rowOf(kModelMethods, method);
    return s.method == Method::Auto
               ? nameOf(kMethods, s.method)
               : nameOf(kConvMethods, toConvMethod(s.method, s.lowering));
}

double
ModelRunResult::totalTimeUs() const
{
    double total = 0.0;
    for (const auto &layer : layers)
        total += layer.stats.timeUs();
    return total;
}

std::vector<KernelRequest>
ModelRunner::layerRequests(const DnnModel &model, ModelMethod method,
                           uint64_t seed, DataType dtype)
{
    const ModelStrategy &strategy = rowOf(kModelMethods, method);

    std::vector<KernelRequest> requests;
    requests.reserve(model.conv_layers.size() +
                     model.gemm_layers.size());

    for (const auto &layer : model.conv_layers) {
        KernelRequest req = KernelRequest::conv(
            layer.shape, layer.weight_sparsity, layer.act_sparsity);
        req.method = strategy.method;
        req.lowering = strategy.lowering;
        req.withClusters(layer.act_cluster, layer.weight_cluster);
        req.seed = seed++;
        req.tag = layer.name;
        requests.push_back(std::move(req));
    }
    for (const auto &layer : model.gemm_layers) {
        KernelRequest req = KernelRequest::gemm(
            layer.m, layer.n, layer.k, layer.act_sparsity,
            layer.weight_sparsity);
        req.method = strategy.method;
        req.withClusters(layer.act_cluster, layer.weight_cluster);
        req.seed = seed++;
        req.tag = layer.name;
        // Conv layers above stay on the FP16 datapath; the datatype
        // axis applies to the GEMM layers only.
        req.withDataType(dtype);
        requests.push_back(std::move(req));
    }
    return requests;
}

ModelRunResult
ModelRunner::run(const DnnModel &model, ModelMethod method,
                 uint64_t seed, DataType dtype) const
{
    ModelRunResult result;
    result.model = model.name;
    result.method = method;
    for (KernelReport &report : session_.runBatch(
             layerRequests(model, method, seed, dtype))) {
        result.layers.push_back({std::move(report.tag), report.stats,
                                 std::move(report.backend)});
    }
    return result;
}

} // namespace dstc
