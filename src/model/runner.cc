#include "model/runner.h"

#include "common/logging.h"
#include "core/method_map.h"

namespace dstc {

namespace {

// ModelMethod is ConvMethod plus Auto, declared in the same order so
// the shared strategy table serves both vocabularies. These pin the
// mirroring — reorder either enum and the build tells you.
static_assert(static_cast<int>(ModelMethod::DenseExplicit) ==
              static_cast<int>(ConvMethod::DenseExplicit));
static_assert(static_cast<int>(ModelMethod::DenseImplicit) ==
              static_cast<int>(ConvMethod::DenseImplicit));
static_assert(static_cast<int>(ModelMethod::SingleSparseExplicit) ==
              static_cast<int>(ConvMethod::SingleSparseExplicit));
static_assert(static_cast<int>(ModelMethod::SingleSparseImplicit) ==
              static_cast<int>(ConvMethod::SingleSparseImplicit));
static_assert(static_cast<int>(ModelMethod::DualSparseImplicit) ==
              static_cast<int>(ConvMethod::DualSparseImplicit));

/** The conv strategy a non-Auto model method names. */
ConvMethod
modelConvMethod(ModelMethod method)
{
    DSTC_ASSERT(method != ModelMethod::Auto);
    return static_cast<ConvMethod>(method);
}

} // namespace

const char *
modelMethodName(ModelMethod method)
{
    return method == ModelMethod::Auto
               ? "Auto"
               : convMethodName(modelConvMethod(method));
}

double
ModelRunResult::totalTimeUs() const
{
    double total = 0.0;
    for (const auto &layer : layers)
        total += layer.stats.timeUs();
    return total;
}

namespace {

/** Registry method + lowering of a model-level strategy. */
void
splitModelMethod(ModelMethod method, Method *out_method,
                 Lowering *out_lowering)
{
    if (method == ModelMethod::Auto) {
        *out_method = Method::Auto;
        *out_lowering = Lowering::Implicit;
        return;
    }
    splitConvMethod(modelConvMethod(method), out_method,
                    out_lowering);
}

} // namespace

std::vector<KernelRequest>
ModelRunner::layerRequests(const DnnModel &model, ModelMethod method,
                           uint64_t seed, DataType dtype)
{
    Method registry_method;
    Lowering lowering;
    splitModelMethod(method, &registry_method, &lowering);

    std::vector<KernelRequest> requests;
    requests.reserve(model.conv_layers.size() +
                     model.gemm_layers.size());

    for (const auto &layer : model.conv_layers) {
        KernelRequest req = KernelRequest::conv(
            layer.shape, layer.weight_sparsity, layer.act_sparsity);
        req.method = registry_method;
        req.lowering = lowering;
        req.withClusters(layer.act_cluster, layer.weight_cluster);
        req.seed = seed++;
        req.tag = layer.name;
        requests.push_back(std::move(req));
    }
    for (const auto &layer : model.gemm_layers) {
        KernelRequest req = KernelRequest::gemm(
            layer.m, layer.n, layer.k, layer.act_sparsity,
            layer.weight_sparsity);
        req.method = registry_method;
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
