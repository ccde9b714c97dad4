#include "core/kernel_registry.h"

#include <algorithm>

#include "common/logging.h"

namespace dstc {

KernelRegistry
KernelRegistry::withDefaultBackends()
{
    KernelRegistry registry;
    registry.registerBackend(makeDualSparseBackend());
    registry.registerBackend(makeDenseBackend());
    registry.registerBackend(makeZhuSparseBackend());
    registry.registerBackend(makeAmpereSparseBackend());
    registry.registerBackend(makeCusparseLikeBackend());
    registry.registerBackend(makeHybridBackend());
    return registry;
}

void
KernelRegistry::registerBackend(std::unique_ptr<Backend> backend)
{
    DSTC_ASSERT(backend);
    DSTC_ASSERT(backend->method() != Method::Auto,
                "Auto is a dispatch mode, not a backend");
    auto it = std::find_if(backends_.begin(), backends_.end(),
                           [&](const auto &b) {
                               return b->method() == backend->method();
                           });
    if (it != backends_.end())
        *it = std::move(backend);
    else
        backends_.push_back(std::move(backend));
}

const Backend *
KernelRegistry::find(Method method) const
{
    for (const auto &backend : backends_)
        if (backend->method() == method)
            return backend.get();
    return nullptr;
}

bool
KernelRegistry::supports(const KernelRequest &request) const
{
    if (!operandsValid(request))
        return false;
    if (request.method == Method::Auto)
        return !candidates(request).empty();
    const Backend *backend = find(request.method);
    return backend && backend->supports(request);
}

std::vector<const Backend *>
KernelRegistry::candidates(const KernelRequest &request) const
{
    std::vector<const Backend *> result;
    for (const auto &backend : backends_) {
        // The hybrid composer is a routing layer over the primitive
        // backends, not an alternative kernel: letting Auto rank it
        // would make Auto's choice recursive (hybrid's no-split
        // candidate is Auto's own answer). Callers opt into hybrid
        // explicitly via Method::Hybrid.
        if (backend->method() == Method::Hybrid)
            continue;
        if (!backend->supports(request) || !backend->exact(request))
            continue;
        result.push_back(backend.get());
    }
    return result;
}

std::unique_ptr<ExecutionPlan>
KernelRegistry::plan(const KernelRequest &request,
                     const PlanContext &ctx) const
{
    DSTC_ASSERT(ctx.cfg && ctx.cache);
    // Composer backends route per-class sub-requests back through
    // the registry that planned them.
    PlanContext routed = ctx;
    routed.registry = this;
    // One digest-and-count pass per operand, shared by every Auto
    // candidate. Fresh per call: a composer's sub-requests carry
    // other matrices.
    routed.digests = std::make_shared<OperandDigests>();
    DSTC_ASSERT(operandsValid(request),
                "operand forms do not pair for this request kind");
    // The kernel multiplies kWarpTile x tile_k A tiles by
    // tile_k x kWarpTile B tiles, at the request's tile_k.
    const int tile_k = request.gemm_options.tile_k;
    const TwoLevelBitmapMatrix *a_enc = request.a.encoded();
    const TwoLevelBitmapMatrix *b_enc = request.b.encoded();
    DSTC_ASSERT(!a_enc || (a_enc->tileRows() == kWarpTile &&
                           a_enc->tileCols() == tile_k &&
                           b_enc->tileRows() == tile_k &&
                           b_enc->tileCols() == kWarpTile),
                "pre-encoded operands must be tiled ", kWarpTile, "x",
                tile_k, " (A) and ", tile_k, "x", kWarpTile,
                " (B) to match gemm_options.tile_k");
    if (request.method != Method::Auto) {
        const Backend *backend = find(request.method);
        DSTC_ASSERT(backend, "no backend registered for method ",
                    nameOf(kMethods, request.method));
        DSTC_ASSERT(backend->supports(request), "backend ",
                    backend->name(), " cannot execute this request");
        return backend->plan(request, routed);
    }

    std::unique_ptr<ExecutionPlan> best;
    for (const Backend *backend : candidates(request)) {
        auto candidate = backend->plan(request, routed);
        if (!best || candidate->estimatedTimeUs() <
                         best->estimatedTimeUs())
            best = std::move(candidate);
    }
    DSTC_ASSERT(best, "no backend supports this request");
    return best;
}

} // namespace dstc
