/**
 * @file
 * Session — the library's public entry point.
 *
 * A Session owns the machine description, the KernelRegistry of
 * execution backends and the EncodingCache of encoded operands. It
 * answers KernelRequests through the uniform plan/execute protocol,
 * serially or batched on the process-shared pool:
 *
 * @code
 *   dstc::Session session;                        // V100 model
 *   auto report = session.run(
 *       dstc::KernelRequest::gemm(4096, 4096, 4096, 0.7, 0.8));
 *
 *   // Batched: many layers concurrently, deterministic stats.
 *   for (const auto &r : session.runBatch(requests)) use(r);
 * @endcode
 *
 * Results are bitwise deterministic: every request is a pure
 * function of its own fields (plus the machine config), so batched
 * and serial execution produce identical stats regardless of thread
 * count or scheduling.
 */
#ifndef DSTC_CORE_SESSION_H
#define DSTC_CORE_SESSION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/encoding_cache.h"
#include "core/kernel_registry.h"
#include "timing/gpu_config.h"

namespace dstc {

/**
 * Worker-thread budget of a session (and of the sessions a cluster or
 * serving engine builds). -1 falls through to the defaults: compute
 * 0 = shared pool, encode 1 = serial. Encode defaults to serial
 * because requests batched through runBatch already saturate the
 * pool. Every worker partitioning in the library is bitwise
 * deterministic, so any setting changes wall-clock only, never
 * results; to compare settings, run one Session per setting.
 */
struct ExecutionResources
{
    /** Workers of the kernel-internal tile loops (SpGEMM output
     *  tiles, conv lowered columns): 0 = shared pool, 1 = serial,
     *  N = cap, -1 = default. */
    int compute_workers = -1;

    /** Workers of the word-parallel operand encoders: same contract,
     *  -1 = default. */
    int encode_workers = -1;
};

/** Construction knobs of a Session. */
struct SessionOptions
{
    GpuConfig config = GpuConfig::v100();

    /** Worker budget of every request this session runs. */
    ExecutionResources resources{};

    /** Encoded-operand cache capacity (entries, LRU eviction). */
    size_t cache_capacity = EncodingCache::kDefaultCapacity;

    /**
     * Optional byte-aware cache bound over the encoded values'
     * reported footprints; 0 = entry-count bound only. For
     * long-running serving, set this to the memory budget the
     * encodings may occupy.
     */
    size_t cache_capacity_bytes = 0;

    /**
     * Non-owning shared encoding cache. When set, plans resolve
     * operands here instead of the session-private cache
     * (cache_capacity/_bytes are ignored) — Sessions over different
     * GpuConfigs can share one cache because operand encodings are
     * pure in the operand contents; config-dependent families fold
     * the machine bits into their keys (CacheKey::gpuConfig). Must
     * outlive the Session.
     */
    EncodingCache *shared_cache = nullptr;
};

/** The plan/execute front end over the kernel registry. */
class Session
{
  public:
    Session();
    explicit Session(GpuConfig config);
    explicit Session(SessionOptions options);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Plan @p request (Auto resolves to the fastest candidate).
     * Plans borrow the session's cache and config: the Session must
     * outlive every plan it returns.
     */
    std::unique_ptr<ExecutionPlan> plan(const KernelRequest &request);

    /** Plan and execute @p request synchronously. */
    KernelReport run(const KernelRequest &request);

    /**
     * Run a batch on the process-shared pool (the caller joins in)
     * and return once every request finished; reports are
     * index-aligned with @p requests and identical to running the
     * same requests serially. Safe to call concurrently and from
     * inside a pool job.
     */
    std::vector<KernelReport>
    runBatch(const std::vector<KernelRequest> &requests);

    /** Requests this Session ran, and how many of them were served
     *  at least one encoded operand from the cache. With a shared
     *  cache these are the per-device contribution to the global
     *  cache counters (the per-device hit rate). */
    struct RequestCounters
    {
        int64_t requests = 0;
        int64_t encode_cache_hits = 0;
    };

    RequestCounters
    requestCounters() const
    {
        return {requests_.load(), encode_cache_hits_.load()};
    }

    KernelRegistry &registry() { return registry_; }
    const KernelRegistry &registry() const { return registry_; }

    /** The cache plans resolve through: the shared cache when the
     *  session was built in shared-cache mode, else its own. */
    EncodingCache &
    encodingCache()
    {
        return options_.shared_cache ? *options_.shared_cache : cache_;
    }

    const EncodingCache &
    encodingCache() const
    {
        return options_.shared_cache ? *options_.shared_cache : cache_;
    }

    const GpuConfig &config() const { return options_.config; }

  private:
    SessionOptions options_;
    KernelRegistry registry_;
    EncodingCache cache_;
    std::atomic<int64_t> requests_{0};
    std::atomic<int64_t> encode_cache_hits_{0};
};

} // namespace dstc

#endif // DSTC_CORE_SESSION_H
