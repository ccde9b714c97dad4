/**
 * @file
 * ServingEngine — the online serving subsystem over a Cluster.
 *
 * The engine runs a deterministic discrete-event simulation of an
 * open-loop serving timeline on a virtual microsecond clock:
 *
 *   ArrivalGenerator ──> ServingEngine::run ──> ServingQueue ──> Cluster
 *    (seeded traffic)    (admission, placement,  (per-device    (device
 *                         dispatch, recovery)     FIFO/EDF)      Sessions)
 *
 * Each arrival is admitted (or rejected/shed under backpressure),
 * placed on a device queue, and — when its device frees up —
 * dispatched as part of a continuous micro-batch of
 * encoding-compatible requests (same operand digests and shapes,
 * which share entries in the cross-device EncodingCache and
 * amortize the per-dispatch overhead). Service times are the
 * simulated kernel times of the placed device's Session, so the
 * whole timeline — queue waits, completions, tail latencies,
 * deadline misses — is a pure function of (options, seed):
 *
 *  - two runs with the same seed produce identical ServingStats;
 *  - every KernelReport is bitwise identical to replaying the placed
 *    request serially on a fresh single Session with that device's
 *    GpuConfig (the cluster contract, kept under open-loop traffic,
 *    EDF reordering, micro-batching and work stealing).
 *
 * Three serving policies decide placement and dispatch (ServePolicy).
 * Placement is the Cluster's one rule (cluster.h): the engine fills a
 * DeviceView per device and takes earliestFinish, or nthLive of its
 * rotation ticket.
 *
 *  - Deadline (default): a request is placed on the device with the
 *    earliest *deadline-aware* estimated finish — device-ready time
 *    plus only the backlog an EDF dequeue would run before it
 *    (entries with earlier deadlines), plus the request's own
 *    per-device estimate; a device that meets the deadline always
 *    ranks ahead of one that misses it. Device queues drain EDF, an
 *    idle device steals the least urgent entry of the deepest queue,
 *    and a dequeued request whose deadline is already infeasible is
 *    dropped unexecuted (the EDF overload guard).
 *  - CostModel: earliest estimated finish over the full FIFO
 *    backlog. No stealing, FIFO drain, no guard.
 *  - RoundRobin: rotation over the live devices; estimates never
 *    consulted. No stealing, FIFO drain, no guard.
 *
 * A hedged interactive request's second arm goes to the earliestFinish
 * of the other idle live devices' estimates.
 *
 * Deadlines are workload-relative (deadlineFor, arrival.h): each
 * request's deadline is its arrival time plus its class multiplier
 * (kDeadlineClassSlos: 4 / 12 / 60) times the request's plan-stage
 * estimate on the *reference device* (device 0), plus a fixed
 * kSloBaseSlackUs (25 us) — so the same traffic is held to the same
 * SLO no matter which policy or device mix serves it. Each dispatch
 * batch pays kDispatchOverheadUs (2 us) once.
 *
 * Fault tolerance (see faults.h): a FaultSpec injects deterministic
 * crash-stop, slowdown and transient faults into the timeline; the
 * recovery policies — retry with exponential backoff, failover
 * drain/re-placement off crashed devices, hedged dispatch for the
 * interactive class, and capacity-rescaled graceful degradation —
 * are all pure functions of (options, seed) too, so recovery
 * quality is gated in CI exactly like p99 and goodput. The run's
 * HealthTracker is the one record of which devices are alive. A
 * dispatch whose slowed finish overflows to +inf never completes:
 * when the timeline ends, every request still in flight or queued is
 * counted lost, so completed + shed + dropped + lost == admitted
 * always holds.
 */
#ifndef DSTC_SERVE_SERVING_H
#define DSTC_SERVE_SERVING_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "serve/arrival.h"
#include "serve/faults.h"
#include "serve/queue.h"
#include "serve/stats.h"

namespace dstc {

/** How the serving layer places and dispatches admitted requests. */
enum class ServePolicy
{
    Deadline,   ///< EDF drain + deadline-aware ETF + work stealing
    CostModel,  ///< FIFO drain + earliest-estimated-finish
    RoundRobin, ///< FIFO drain + rotation
};

/** The serving policies and their CLI tokens. */
inline constexpr Term<ServePolicy> kServePolicies[] = {
    {ServePolicy::Deadline, "deadline"},
    {ServePolicy::CostModel, "cost"},
    {ServePolicy::RoundRobin, "rr"},
};
static_assert(listsEveryValue(kServePolicies, ServePolicy::RoundRobin));

/** Scheduling/launch overhead charged once per dispatch batch, in
 *  simulated us. */
inline constexpr double kDispatchOverheadUs = 2.0;

/** Construction knobs of a ServingEngine. */
struct ServingOptions
{
    /** One Session per entry; empty = a single V100. Device 0 is the
     *  SLO reference device. */
    std::vector<GpuConfig> devices;

    ServePolicy policy = ServePolicy::Deadline;
    AdmissionPolicy admission = AdmissionPolicy::Reject;

    /** Global queue-depth bound across all device queues (the
     *  backpressure surface). */
    size_t queue_depth = 256;

    /** Maximum requests per dispatch micro-batch (1 = batching
     *  off). Batch mates share one dispatch overhead and hit the
     *  shared EncodingCache back to back. */
    size_t microbatch = 4;

    /** Traffic shape (pattern, rate, duration, seed); arrivals draw
     *  from the engine's workload pool. */
    ArrivalOptions arrivals;

    // -- fault injection and recovery ------------------------------
    //
    // All fault decisions live on the virtual clock and seeded
    // hashes, so a faulted run is exactly as deterministic as a
    // healthy one: same options + seed => identical stats, and every
    // *completed* request still replays bitwise on a fresh serial
    // Session.

    /** Fault scenario (empty = healthy fleet). */
    FaultSpec faults;

    /** Seed of the fault injector's random draws and transient
     *  hashes; 0 derives it from arrivals.seed. */
    uint64_t fault_seed = 0;

    /** Retry transiently failed dispatches with exponential backoff
     *  (off: a transient failure loses the request). */
    bool retry = false;

    /** Maximum dispatch attempts per request (first try included);
     *  past it the request is lost and counted retries_exhausted. */
    int retry_budget = 3;

    /** Backoff before retry attempt k (1-based redispatch) is
     *  retry_backoff_us * 2^(k-1) simulated us. */
    double retry_backoff_us = 10.0;

    /** Drain a crashed device's queued and in-flight requests onto
     *  the survivors (off: the no-recovery baseline — a crash loses
     *  everything the device held). */
    bool failover = true;

    /** Hedge interactive dispatches: duplicate onto the best other
     *  idle device, first successful completion wins, the loser is
     *  cancelled on the spot. */
    bool hedge = false;

    /** Graceful degradation: the admission depth bound and the EDF
     *  infeasibility guard rescale to the surviving fleet's
     *  estimatedCapacityRpms, and overload eviction sheds the batch
     *  class first. */
    bool degrade = true;

    /** Per-device execution resources (SessionOptions semantics). */
    ExecutionResources resources;
};

/** Per-request outcome of a serving run. */
struct ServeOutcome
{
    int64_t id = 0;
    size_t pool_index = 0;
    size_t device = 0;
    DeadlineClass deadline_class = DeadlineClass::Standard;
    double arrival_us = 0.0;
    double start_us = 0.0;  ///< dispatch time on the virtual clock
    double finish_us = 0.0; ///< completion time on the virtual clock
    double deadline_us = 0.0;
    bool met_deadline = false;
    bool stolen = false;          ///< re-placed by work stealing
    bool batched_follower = false; ///< rode a micro-batch (not head)
    int attempts = 1;      ///< dispatch attempts (1 = first try won)
    bool failed_over = false; ///< survived a crash via re-placement
    bool hedged = false;      ///< dispatch was duplicated (hedging)
    KernelReport report;
};

/** Everything a serving run produced. */
struct ServingResult
{
    ServingStats stats;
    /** Completed requests in submission-id order. */
    std::vector<ServeOutcome> outcomes;
};

/** The open-loop serving front end. */
class ServingEngine
{
  public:
    /**
     * @param options the serving configuration
     * @param pool    workload pool arrivals draw from (each arrival
     *                executes one pool entry; must be non-empty and
     *                must outlive the engine if entries carry
     *                operand pointers)
     */
    ServingEngine(ServingOptions options,
                  std::vector<KernelRequest> pool);

    /** Run the full serving timeline (arrivals then drain). */
    ServingResult run();

    /** The engine's Cluster (device Sessions, shared cache). */
    Cluster &cluster() { return *cluster_; }
    const Cluster &cluster() const { return *cluster_; }

    const ServingOptions &options() const { return options_; }
    const std::vector<KernelRequest> &pool() const { return pool_; }

    /**
     * Aggregate serving capacity of the configured devices, in
     * requests per simulated millisecond, assuming a uniform draw
     * over the pool: sum over devices of the pool size / (sum of
     * the pool's per-device estimates plus one kDispatchOverheadUs
     * per request — the no-batching worst case). The natural yardstick
     * for choosing an offered rate ("0.8 x capacity",
     * "2.5 x capacity"); micro-batching policies gain headroom
     * beyond it by amortizing the overhead.
     */
    double estimatedCapacityRpms();

    /**
     * The serving determinism contract's second half: re-run every
     * completed request of @p result serially on a fresh
     * single-device Session with the placed device's config and
     * compare reports bitwise. Returns false on any divergence.
     */
    bool replayMatchesSerial(const ServingResult &result);

  private:
    /** Per-pool-entry serving constants. */
    struct PoolEntry
    {
        std::vector<double> estimate_us; ///< one per device
        uint64_t batch_key = 0; ///< encoding-compatibility digest
    };

    /** Fill pool_info_ and device_capacity_ on first use. */
    void buildPoolInfo();

    ServingOptions options_;
    std::vector<KernelRequest> pool_;
    std::unique_ptr<Cluster> cluster_;
    std::vector<PoolEntry> pool_info_;
    /** Healthy per-device capacity in requests per simulated ms (the
     *  estimatedCapacityRpms summands). */
    std::vector<double> device_capacity_;
};

} // namespace dstc

#endif // DSTC_SERVE_SERVING_H
