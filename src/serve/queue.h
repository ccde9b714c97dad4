/**
 * @file
 * ServingQueue — bounded admission front between the open-loop
 * arrival stream and the Cluster's devices.
 *
 * Requests are placed onto a per-device queue at admission time (the
 * ServingEngine picks the device); the queue enforces one global
 * depth bound across all devices — the backpressure surface. On
 * overload the admission policy decides who pays:
 *
 *  - Reject: the arriving request is refused (classic load shedding
 *    at the front door; the client sees an immediate error).
 *  - ShedOldest: the oldest queued request anywhere is dropped to
 *    make room (prefer fresh work: the oldest entry has burned the
 *    most of its deadline and is the likeliest goodput loss anyway).
 *
 * Dequeue order is per-policy: EDF (earliest deadline first) for the
 * Deadline serving policy, FIFO otherwise. All tie-breaks are on the
 * submission id, so every operation is a pure function of the
 * admitted sequence — the serving determinism contract.
 */
#ifndef DSTC_SERVE_QUEUE_H
#define DSTC_SERVE_QUEUE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/arrival.h"

namespace dstc {

/** What happens to an arriving request when the queue is full. */
enum class AdmissionPolicy
{
    Reject,    ///< refuse the newcomer
    ShedOldest ///< drop the oldest queued request, admit the newcomer
};

/** The admission policies and their CLI tokens. */
inline constexpr Term<AdmissionPolicy> kAdmissionPolicies[] = {
    {AdmissionPolicy::Reject, "reject"},
    {AdmissionPolicy::ShedOldest, "shed"},
};
static_assert(listsEveryValue(kAdmissionPolicies,
                              AdmissionPolicy::ShedOldest));

/** One admitted request waiting on a device queue. */
struct QueuedRequest
{
    int64_t id = 0;         ///< submission-sequence position
    size_t pool_index = 0;  ///< workload-pool request to execute
    uint64_t batch_key = 0; ///< encoding-compatibility digest
    double arrival_us = 0.0;
    double deadline_us = 0.0;
    double estimate_us = 0.0; ///< plan-stage estimate on the device
    DeadlineClass deadline_class = DeadlineClass::Standard;
    size_t device = 0; ///< placed device (updated when stolen)

    // Fault-recovery provenance, carried through re-placements.
    int attempts = 1;         ///< dispatch attempts including this one
    bool failed_over = false; ///< re-placed off a crashed device
};

/** Bounded per-device queues with admission control. */
class ServingQueue
{
  public:
    /**
     * @param num_devices one queue per device
     * @param depth_bound global bound across all queues (>= 1)
     * @param policy      overload behavior
     */
    ServingQueue(size_t num_devices, size_t depth_bound,
                 AdmissionPolicy policy);

    enum class Admit
    {
        Admitted,
        Rejected,
    };

    /**
     * Enqueue @p request on its placed device. On overload, either
     * rejects it or sheds the oldest queued request (appended to
     * @p shed, which the caller accounts as a deadline loss). With
     * @p force the depth bound is ignored — the path for fault
     * recovery re-placements (retries, failover), which already
     * passed admission once and must not be double-charged.
     */
    Admit admit(QueuedRequest request,
                std::vector<QueuedRequest> *shed,
                bool force = false);

    bool empty(size_t device) const;
    size_t depth(size_t device) const;
    size_t totalDepth() const { return total_; }
    size_t depthBound() const { return depth_bound_; }

    /**
     * Sum of the queued plan-stage estimates on @p device that an EDF
     * dequeue would run *before* a request with deadline
     * @p deadline_us — the wait a new arrival of that deadline
     * actually experiences there. (Ties on the deadline count as
     * ahead: equal-deadline entries dequeue by lower id, and the
     * newcomer's id is always higher.) A FIFO drain runs the whole
     * backlog first: pass +inf.
     */
    double backlogUs(size_t device, double deadline_us) const;

    /**
     * Dequeue the next request of @p device: earliest deadline when
     * @p edf (ties to the lowest id), else lowest id (FIFO).
     */
    std::optional<QueuedRequest> pop(size_t device, bool edf);

    /**
     * Extract up to @p max_extra further requests with the same
     * batch_key as @p key from @p device's queue, in dequeue order —
     * the continuous micro-batch that amortizes dispatch overhead
     * and hits the shared EncodingCache.
     */
    std::vector<QueuedRequest> popBatchMates(size_t device,
                                             uint64_t key,
                                             size_t max_extra,
                                             bool edf);

    /**
     * Work-stealing: remove one request for idle device @p thief
     * from the deepest other queue (ties to the lowest device
     * index). The donor gives up its *least urgent* entry (latest
     * deadline, ties to the highest id) — the one it was going to
     * serve last anyway. Returns nullopt when every queue is empty.
     * The returned request's `device` is rewritten to @p thief; the
     * donor index is reported through @p donor when non-null.
     */
    std::optional<QueuedRequest> steal(size_t thief,
                                       size_t *donor = nullptr);

    /**
     * Remove and return every request queued on @p device, in id
     * order — the failover drain of a crashed device. The caller
     * re-places (or accounts as lost) each entry.
     */
    std::vector<QueuedRequest> drainDevice(size_t device);

    /**
     * Rescale the global depth bound (graceful degradation: the
     * bound tracks the surviving fleet's capacity). Clamped to >= 1;
     * entries above the new bound stay queued until shedExcess.
     */
    void setDepthBound(size_t bound);

    /**
     * Evict queued requests until the total depth is back within the
     * bound (after a setDepthBound shrink), appending victims to
     * @p shed. Victim order follows the shed policy below.
     */
    void shedExcess(std::vector<QueuedRequest> *shed);

    /**
     * When enabled, overload eviction (admit-on-full under
     * ShedOldest, and shedExcess) picks its victims class-first:
     * batch before standard before interactive, oldest id within the
     * class — under reduced capacity the throughput-oriented work is
     * shed before anything a user is waiting on.
     */
    void setShedBatchFirst(bool enabled)
    {
        shed_batch_first_ = enabled;
    }

  private:
    /** Remove and return entry @p index of @p device's queue. */
    QueuedRequest take(size_t device, size_t index);

    /** Evict the next shed victim into @p shed (when non-null); the
     *  queues must not all be empty. */
    void shedOne(std::vector<QueuedRequest> *shed);

    size_t depth_bound_;
    AdmissionPolicy policy_;
    bool shed_batch_first_ = false;
    size_t total_ = 0;
    std::vector<std::vector<QueuedRequest>> queues_;
};

} // namespace dstc

#endif // DSTC_SERVE_QUEUE_H
