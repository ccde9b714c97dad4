/**
 * @file
 * Cluster — sharded multi-device execution over per-device Sessions.
 *
 * A Cluster owns N Sessions, one per device GpuConfig (heterogeneous
 * mixes allowed: V100s next to A100-class or future-GPU machines),
 * behind the same runBatch surface a single Session exposes.
 * runBatch places every KernelRequest of the batch on one device, in
 * index order, starting from idle devices:
 *
 *  - PlacementPolicy::CostModel (default): each request is estimated
 *    on every device by the plan-stage time estimate — the same
 *    number Method::Auto ranks backends with — and lands on the
 *    device with the earliest estimated finish (the estimates the
 *    batch already placed there plus its own; earliestFinish).
 *  - PlacementPolicy::RoundRobin: request i goes to device i mod N
 *    (nthLive), estimates never computed.
 *  - PlacementPolicy::StaticShard: a stable structural digest of the
 *    request picks the device (nthLive), so identical layers always
 *    land on the same device (encoding affinity), independent of
 *    submission order.
 *
 * earliestFinish and nthLive are the one placement rule: the
 * ServingEngine places its arrivals, re-placements and hedge arms
 * with the same two functions over its own device views.
 *
 * Batches run on the process-shared pool, like a Session's (the host
 * cannot be oversubscribed by N per-device pools), and all devices
 * share one EncodingCache (1024 entries, LRU):
 * operand encodings are pure in the operand contents, so a layer
 * encoded for device 0 is a cache hit on device 1 even when their
 * configs differ. Config-dependent cache families — the per-device
 * time estimates placement ranks by — fold the machine parameters
 * into their keys (CacheKey::gpuConfig) and never collide across
 * configs.
 *
 * Determinism contract (the PR 2-4 contract, lifted to the cluster):
 * placement is a pure function of the batch — never of execution
 * timing, thread count, earlier batches or policy racing — and every
 * report is bitwise identical to running the same request serially
 * on a fresh single Session with the placed device's GpuConfig. The
 * reports of runBatch are index-aligned with the requests.
 */
#ifndef DSTC_CORE_CLUSTER_H
#define DSTC_CORE_CLUSTER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/session.h"

namespace dstc {

/** How a Cluster maps the requests of a batch to devices. */
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
};

/** What placement sees of one device for one request. */
struct DeviceView
{
    bool alive = true;
    double finish_us = 0.0;     ///< the request's estimated finish there
    bool meets_deadline = true; ///< finish_us is within its deadline
};

/**
 * The greedy earliest-finish rule: the first live device with the
 * lowest finish_us, where a device that meets the deadline ranks
 * ahead of one that misses it. Ties go to the lowest index. Returns
 * devices.size() when no device is alive.
 */
size_t earliestFinish(std::span<const DeviceView> devices);

/**
 * The (ticket mod live-count)-th live device, counting from index 0:
 * round-robin rotation and shard keys over the live fleet. Returns
 * devices.size() when no device is alive.
 */
size_t nthLive(std::span<const DeviceView> devices, uint64_t ticket);

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

    /**
     * The plan-stage time estimate of @p request on device @p i —
     * the number CostModel placement ranks devices by. Cached in the
     * shared EncodingCache under a key folding the request's content
     * digest and the device's machine parameters, so repeated layers
     * estimate once per device config.
     */
    double estimateOn(size_t i, const KernelRequest &request);

    /**
     * Place every request in index order, from idle devices, then
     * run them all on the process-shared pool; reports are
     * index-aligned with @p requests, record the placement in their
     * `device` field, and are bitwise identical to running each
     * request serially on a single Session with the placed device's
     * config.
     */
    std::vector<KernelReport>
    runBatch(const std::vector<KernelRequest> &requests);

  private:
    /** estimateOn with the request's content digest precomputed (one
     *  hash per request, shared across the per-device loop). */
    double estimateOn(size_t i, const KernelRequest &request,
                      const std::optional<uint64_t> &digest);

    ClusterOptions options_;
    EncodingCache cache_;
    std::vector<std::unique_ptr<Session>> sessions_;
};

} // namespace dstc

#endif // DSTC_CORE_CLUSTER_H
