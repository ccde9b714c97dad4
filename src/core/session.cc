#include "core/session.h"

#include "core/thread_pool.h"

namespace dstc {

Session::Session() : Session(SessionOptions{}) {}

Session::Session(GpuConfig config)
    : Session(SessionOptions{config})
{
}

Session::Session(SessionOptions options)
    : options_(options),
      registry_(KernelRegistry::withDefaultBackends()),
      cache_(options.cache_capacity, options.cache_capacity_bytes)
{
}

Session::~Session() = default;

namespace {

/** Resolve the encode-worker axis (see ExecutionResources). */
int
resolveEncodeWorkers(const KernelRequest &request,
                     const SessionOptions &options)
{
    if (request.resources.encode_workers >= 0)
        return request.resources.encode_workers;
    if (options.resources.encode_workers >= 0)
        return options.resources.encode_workers;
    return 1;
}

/**
 * Resolve the compute-worker axis (see ExecutionResources); -1 =
 * nothing to apply, the request's options keep their default.
 */
int
resolveComputeWorkers(const KernelRequest &request,
                      const SessionOptions &options)
{
    if (request.resources.compute_workers >= 0)
        return request.resources.compute_workers;
    return options.resources.compute_workers;
}

} // namespace

std::unique_ptr<ExecutionPlan>
Session::plan(const KernelRequest &request)
{
    PlanContext ctx;
    ctx.cfg = &options_.config;
    ctx.cache = &encodingCache();
    ctx.encode_workers = resolveEncodeWorkers(request, options_);
    const int compute = resolveComputeWorkers(request, options_);
    if (compute >= 0) {
        KernelRequest resolved = request;
        resolved.gemm_options.num_workers = compute;
        return registry_.plan(resolved, ctx);
    }
    return registry_.plan(request, ctx);
}

KernelReport
Session::run(const KernelRequest &request)
{
    KernelReport report = plan(request)->execute();
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (report.encode_cache_hit)
        encode_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return report;
}

std::vector<KernelReport>
Session::runBatch(const std::vector<KernelRequest> &requests)
{
    std::vector<KernelReport> reports(requests.size());
    ThreadPool &pool = sharedThreadPool();
    parallelFor(&pool, static_cast<int64_t>(requests.size()),
                pool.numThreads(),
                [&](int64_t i) { reports[i] = run(requests[i]); });
    return reports;
}

} // namespace dstc
