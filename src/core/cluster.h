/**
 * @file
 * Cluster — sharded multi-device execution over per-device Sessions.
 *
 * A Cluster owns N Sessions, one per device GpuConfig (heterogeneous
 * mixes allowed: V100s next to A100-class or future-GPU machines),
 * behind the same run/runBatch surface a single Session exposes. A
 * ClusterScheduler places every KernelRequest on one device:
 *
 *  - PlacementPolicy::CostModel (default): each request is estimated
 *    on every device by the plan-stage time estimate — the same
 *    number Method::Auto ranks backends with — and lands on the
 *    device with the earliest estimated finish time (per-device
 *    estimated-busy accumulators, updated in submission order).
 *  - PlacementPolicy::RoundRobin: devices in submission-order
 *    rotation, estimates never computed.
 *  - PlacementPolicy::StaticShard: a stable structural digest of the
 *    request picks the device, so identical layers always land on
 *    the same device (encoding affinity), independent of submission
 *    order.
 *
 * Batches run on the process-shared pool, like a Session's (the host
 * cannot be oversubscribed by N per-device pools), and all devices
 * share one EncodingCache:
 * operand encodings are pure in the operand contents, so a layer
 * encoded for device 0 is a cache hit on device 1 even when their
 * configs differ. Config-dependent cache families — the scheduler's
 * per-device time estimates — fold the machine parameters into their
 * keys (CacheKey::gpuConfig) and never collide across configs.
 *
 * Determinism contract (the PR 2-4 contract, lifted to the cluster):
 * placement is a pure function of the submission sequence — never of
 * execution timing, thread count or policy racing — and every report
 * is bitwise identical to running the same request serially on a
 * fresh single Session with the placed device's GpuConfig. The
 * reports of runBatch are index-aligned with the requests.
 */
#ifndef DSTC_CORE_CLUSTER_H
#define DSTC_CORE_CLUSTER_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/session.h"

namespace dstc {

/** How the ClusterScheduler maps requests to devices. */
enum class PlacementPolicy
{
    CostModel,  ///< earliest estimated finish time (plan-stage cost)
    RoundRobin, ///< submission-order rotation
    StaticShard ///< stable request digest modulo device count
};

/** The placement policies and their CLI tokens. */
inline constexpr Term<PlacementPolicy> kPlacementPolicies[] = {
    {PlacementPolicy::CostModel, "cost"},
    {PlacementPolicy::RoundRobin, "rr"},
    {PlacementPolicy::StaticShard, "shard"},
};
static_assert(listsEveryValue(kPlacementPolicies,
                              PlacementPolicy::StaticShard));

/** Construction knobs of a Cluster. */
struct ClusterOptions
{
    /** One Session per entry; empty = a single V100. */
    std::vector<GpuConfig> devices;

    PlacementPolicy policy = PlacementPolicy::CostModel;

    /** Per-device execution resources (SessionOptions semantics). */
    ExecutionResources resources;

    /** Shared-cache bounds (SessionOptions semantics). */
    size_t cache_capacity = EncodingCache::kDefaultCapacity;
    size_t cache_capacity_bytes = 0;
};

/** Per-device work accounting of the scheduler. */
struct DeviceLoad
{
    int64_t placed = 0;    ///< requests placed on the device
    int64_t completed = 0; ///< requests finished executing
    /** Sum of the placed requests' plan-stage estimates (the
     *  estimated-finish-time queue; 0 under RoundRobin/StaticShard,
     *  which never estimate). */
    double estimated_busy_us = 0.0;
};

/**
 * Deterministic placement engine of a Cluster. place() mutates the
 * per-device accounting under a mutex, so concurrent submitters are
 * safe — but placement is only reproducible for a deterministic
 * submission sequence (runBatch places in index order).
 */
class ClusterScheduler
{
  public:
    ClusterScheduler(PlacementPolicy policy, size_t num_devices);

    /**
     * Pick a device for one request. @p estimates holds the per-
     * device plan-stage estimates (required iff the policy is
     * CostModel); @p shard_key is the request's stable structural
     * digest (consulted only by StaticShard). Ties break toward the
     * lowest device index.
     */
    size_t place(const std::vector<double> &estimates,
                 uint64_t shard_key);

    /** Record that a placed request finished on @p device. */
    void completed(size_t device);

    DeviceLoad load(size_t device) const;

  private:
    mutable std::mutex mu_;
    PlacementPolicy policy_;
    std::vector<DeviceLoad> loads_;
    uint64_t next_round_robin_ = 0;
};

/**
 * Stable structural digest of a request: geometry, method, operating
 * point, operand forms and options — never operand contents (cheap,
 * and available for every request shape). StaticShard keys on it.
 * The datatype and the SpMM format are not folded (placement keys
 * predate both axes); the content digest folds them.
 */
uint64_t requestShardKey(const KernelRequest &request);

/**
 * Full content digest of a request: the shard key plus the datatype,
 * the SpMM format and the concrete operands' bytes. Keys the
 * cluster's estimate cache and the serving micro-batch. Empty when
 * the request carries caller-owned pointer encodings (profiles /
 * pre-encoded two-level operands) whose contents are not hashable
 * here — estimate caching is skipped for those.
 */
std::optional<uint64_t>
requestContentDigest(const KernelRequest &request);

/** The sharded multi-device front end. */
class Cluster
{
  public:
    /** A single-V100 cluster (same results as a plain Session). */
    Cluster();
    explicit Cluster(ClusterOptions options);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    size_t numDevices() const { return sessions_.size(); }
    Session &device(size_t i) { return *sessions_[i]; }
    const Session &device(size_t i) const { return *sessions_[i]; }

    const GpuConfig &
    deviceConfig(size_t i) const
    {
        return options_.devices[i];
    }

    EncodingCache &encodingCache() { return cache_; }
    const EncodingCache &encodingCache() const { return cache_; }
    const ClusterOptions &options() const { return options_; }
    DeviceLoad load(size_t i) const { return scheduler_.load(i); }

    /**
     * The plan-stage time estimate of @p request on device @p i —
     * the number CostModel placement ranks devices by. Cached in the
     * shared EncodingCache under a key folding the request's content
     * digest and the device's machine parameters, so repeated layers
     * estimate once per device config.
     */
    double estimateOn(size_t i, const KernelRequest &request);

    /**
     * Place one request (mutating the scheduler accounting) and
     * return the chosen device index. run()/runBatch() call this; it
     * is public so callers can audit placement decisions.
     */
    size_t place(const KernelRequest &request);

    /** Place and execute @p request synchronously. The report's
     *  `device` field records the placement. */
    KernelReport run(const KernelRequest &request);

    /**
     * Place every request in index order, then run them all on the
     * process-shared pool; reports are index-aligned with
     * @p requests and bitwise identical to running each request
     * serially on a single Session with the placed device's config.
     */
    std::vector<KernelReport>
    runBatch(const std::vector<KernelRequest> &requests);

  private:
    /** Execute @p request on device @p d, already placed there. */
    KernelReport runOn(size_t d, const KernelRequest &request);

    /** estimateOn with the request's content digest precomputed (one
     *  hash per request, shared across the per-device loop). */
    double estimateOn(size_t i, const KernelRequest &request,
                      const std::optional<uint64_t> &digest);

    ClusterOptions options_;
    EncodingCache cache_;
    std::vector<std::unique_ptr<Session>> sessions_;
    ClusterScheduler scheduler_;
};

} // namespace dstc

#endif // DSTC_CORE_CLUSTER_H
