#include "core/session.h"

#include <algorithm>

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

ThreadPool &
Session::pool()
{
    if (options_.shared_pool)
        return *options_.shared_pool;
    std::call_once(pool_once_, [this] {
        int threads = options_.num_threads;
        if (threads <= 0)
            threads = std::max(
                1u, std::thread::hardware_concurrency());
        pool_ = std::make_unique<ThreadPool>(threads);
    });
    return *pool_;
}

std::future<KernelReport>
Session::submit(KernelRequest request)
{
    auto task = std::make_shared<std::packaged_task<KernelReport()>>(
        [this, request = std::move(request)] { return run(request); });
    std::future<KernelReport> future = task->get_future();
    pool().enqueue([task] { (*task)(); });
    return future;
}

std::vector<std::future<KernelReport>>
Session::submitBatch(std::vector<KernelRequest> requests)
{
    std::vector<std::future<KernelReport>> futures;
    futures.reserve(requests.size());
    for (KernelRequest &request : requests)
        futures.push_back(submit(std::move(request)));
    return futures;
}

std::vector<KernelReport>
Session::runBatch(std::vector<KernelRequest> requests)
{
    auto futures = submitBatch(std::move(requests));
    std::vector<KernelReport> reports;
    reports.reserve(futures.size());
    for (auto &future : futures)
        reports.push_back(future.get());
    return reports;
}

} // namespace dstc
