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

std::unique_ptr<ExecutionPlan>
Session::plan(const KernelRequest &request)
{
    PlanContext ctx;
    ctx.cfg = &options_.config;
    ctx.cache = &encodingCache();
    const ExecutionResources &res = options_.resources;
    ctx.encode_workers = res.encode_workers >= 0 ? res.encode_workers : 1;
    if (res.compute_workers >= 0) {
        KernelRequest resolved = request;
        resolved.gemm_options.num_workers = res.compute_workers;
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
