#include "serve/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace dstc {

ServingEngine::ServingEngine(ServingOptions options,
                             std::vector<KernelRequest> pool)
    : options_(std::move(options)), pool_(std::move(pool))
{
    DSTC_ASSERT(!pool_.empty(),
                "the serving engine needs a workload pool");
    if (options_.devices.empty())
        options_.devices.push_back(GpuConfig::v100());
    if (options_.microbatch == 0)
        options_.microbatch = 1;
    if (options_.retry_budget < 1)
        options_.retry_budget = 1;
    options_.arrivals.pool_size = pool_.size();

    ClusterOptions copts;
    copts.devices = options_.devices;
    // The cluster's own scheduler is unused (the serving layer
    // places through its DeadlineScheduler); any policy works.
    copts.policy = PlacementPolicy::RoundRobin;
    copts.num_threads = options_.num_threads;
    copts.resources = options_.resources;
    cluster_ = std::make_unique<Cluster>(std::move(copts));
}

double
ServingEngine::deadlineFor(DeadlineClass dclass, double arrival_us,
                           double ref_estimate_us) const
{
    double mult = options_.slo_standard_mult;
    if (dclass == DeadlineClass::Interactive)
        mult = options_.slo_interactive_mult;
    else if (dclass == DeadlineClass::Batch)
        mult = options_.slo_batch_mult;
    return arrival_us + mult * ref_estimate_us +
           options_.slo_base_slack_us;
}

namespace {

/** Per-pool-entry serving constants: the per-device plan-stage
 *  estimates and the encoding-compatibility digest. */
struct PoolEntryInfo
{
    std::vector<double> estimate_us; ///< one per device
    uint64_t batch_key = 0;
};

std::vector<PoolEntryInfo>
buildPoolInfo(Cluster &cluster, const std::vector<KernelRequest> &pool)
{
    std::vector<PoolEntryInfo> info(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
        info[i].estimate_us.reserve(cluster.numDevices());
        for (size_t d = 0; d < cluster.numDevices(); ++d)
            info[i].estimate_us.push_back(
                cluster.estimateOn(d, pool[i]));
        // Encoding compatibility = same operand contents (or, for
        // synthetic timing requests, the same structural operating
        // point) — exactly what makes two requests share entries in
        // the EncodingCache.
        info[i].batch_key = requestContentDigest(pool[i])
                                .value_or(requestShardKey(pool[i]));
    }
    return info;
}

/** One dispatched request (or hedge arm) executing on a device. */
struct InFlight
{
    ServeOutcome outcome; ///< start/finish/report already filled
    bool fails = false;   ///< transient failure at its finish
    /** Partner arm's device of a hedged dispatch (SIZE_MAX: not
     *  hedged, or the partner already resolved/was crash-killed). */
    size_t hedge_partner = SIZE_MAX;
    bool hedge_secondary = false; ///< this is the duplicate arm
};

/** A transiently failed request waiting out its backoff. */
struct PendingRetry
{
    QueuedRequest request;
    double ready_us = 0.0;
};

} // namespace

double
ServingEngine::estimatedCapacityRpms()
{
    const std::vector<PoolEntryInfo> info =
        buildPoolInfo(*cluster_, pool_);
    double capacity = 0.0;
    for (size_t d = 0; d < cluster_->numDevices(); ++d) {
        double sum_us = 0.0;
        // One dispatch overhead per request — the no-batching worst
        // case, so "1.0x capacity" is a true saturation point even
        // for policies that never form micro-batches. (For this
        // pool's ~2us kernels the overhead is roughly half the
        // effective service time, not a rounding error.)
        for (const PoolEntryInfo &entry : info)
            sum_us +=
                entry.estimate_us[d] + options_.dispatch_overhead_us;
        if (sum_us > 0.0)
            capacity +=
                1e3 * static_cast<double>(pool_.size()) / sum_us;
    }
    return capacity;
}

ServingResult
ServingEngine::run()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t n = cluster_->numDevices();
    const std::vector<PoolEntryInfo> info =
        buildPoolInfo(*cluster_, pool_);
    const std::vector<Arrival> arrivals =
        ArrivalGenerator(options_.arrivals).generate();

    DeadlineScheduler scheduler(options_.policy, n);
    ServingQueue queue(n, options_.queue_depth, options_.admission);
    const bool edf = scheduler.edfOrder();

    // -- fault state --------------------------------------------------
    const uint64_t fault_seed =
        options_.fault_seed != 0
            ? options_.fault_seed
            : options_.arrivals.seed ^ 0xfa117ull;
    const FaultInjector injector(options_.faults, n,
                                 options_.arrivals.duration_ms * 1e3,
                                 fault_seed);
    HealthTracker health(n);
    FaultRecoveryStats fr;

    // Healthy per-device capacity (requests per simulated ms, the
    // estimatedCapacityRpms summand): the yardstick graceful
    // degradation rescales the admission depth against.
    std::vector<double> device_capacity(n, 0.0);
    double full_capacity = 0.0;
    for (size_t d = 0; d < n; ++d) {
        double sum_us = 0.0;
        for (const PoolEntryInfo &entry : info)
            sum_us +=
                entry.estimate_us[d] + options_.dispatch_overhead_us;
        if (sum_us > 0.0)
            device_capacity[d] =
                1e3 * static_cast<double>(pool_.size()) / sum_us;
        full_capacity += device_capacity[d];
    }
    double surviving_capacity = full_capacity;
    // Feasibility headroom under degradation: with a fraction r of
    // the fleet's capacity surviving, queues drain 1/r times slower,
    // so the EDF guard requires 1/r times the service estimate in
    // deadline headroom before committing a device to a request.
    double degrade_factor = 1.0;

    std::vector<double> free_at(n, 0.0);
    std::vector<bool> busy(n, false);
    std::vector<std::vector<InFlight>> inflight(n);
    std::vector<PendingRetry> retries;

    ServingResult result;
    std::vector<int64_t> rejected_per_class(kNumDeadlineClasses, 0);
    std::vector<int64_t> shed_per_class(kNumDeadlineClasses, 0);
    std::vector<int64_t> dropped_per_class(kNumDeadlineClasses, 0);
    std::vector<int64_t> lost_per_class(kNumDeadlineClasses, 0);
    int64_t microbatches = 0, microbatched = 0;

    auto accountShed = [&](const std::vector<QueuedRequest> &shed) {
        for (const QueuedRequest &victim : shed)
            ++shed_per_class[static_cast<int>(
                victim.deadline_class)];
    };

    auto loseRequest = [&](DeadlineClass dclass) {
        ++fr.lost;
        ++lost_per_class[static_cast<int>(dclass)];
    };

    // The service-time estimate the scheduler and the EDF guard see
    // for device d at virtual time t: the plan-stage estimate scaled
    // by any active slowdown window.
    auto scaledEstimate = [&](size_t pool_index, size_t d, double t) {
        return info[pool_index].estimate_us[d] *
               health.slowdownFactor(d, t);
    };

    // Re-place a drained / retried request on the surviving fleet.
    // Returns false when no device is alive (the caller accounts the
    // loss). Mirrors the arrival placement path, minus admission
    // control: recovery re-placements were admitted once already and
    // re-enter the queue unbounded.
    auto requeue = [&](QueuedRequest qr, double now) {
        if (health.aliveCount() == 0)
            return false;
        std::vector<double> estimates(n, 0.0), ready(n, now),
            backlog(n, 0.0);
        for (size_t d = 0; d < n; ++d) {
            if (!health.alive(d))
                continue;
            estimates[d] = scaledEstimate(qr.pool_index, d, now);
            ready[d] = busy[d] ? free_at[d] : now;
            backlog[d] = edf
                             ? queue.backlogBeforeUs(d, qr.deadline_us)
                             : queue.backlogUs(d);
        }
        const size_t dev = scheduler.placeArrival(
            options_.policy == ServePolicy::RoundRobin
                ? std::vector<double>{}
                : estimates,
            ready, backlog, qr.deadline_us);
        qr.device = dev;
        qr.estimate_us = scaledEstimate(qr.pool_index, dev, now);
        const ServingQueue::Admit admitted =
            queue.admit(qr, nullptr, /*force=*/true);
        DSTC_ASSERT(admitted == ServingQueue::Admit::Admitted,
                    "forced admission cannot be refused");
        return true;
    };

    auto remakeQueued = [&](const ServeOutcome &o) {
        QueuedRequest qr;
        qr.id = o.id;
        qr.pool_index = o.pool_index;
        qr.batch_key = info[o.pool_index].batch_key;
        qr.arrival_us = o.arrival_us;
        qr.deadline_us = o.deadline_us;
        qr.deadline_class = o.deadline_class;
        qr.attempts = o.attempts;
        qr.failed_over = o.failed_over;
        return qr;
    };

    // A dispatch attempt failed transiently on every arm: retry with
    // exponential backoff while the budget lasts, else the request
    // is lost.
    auto resolveFailure = [&](const ServeOutcome &o, double now) {
        if (options_.retry && o.attempts < options_.retry_budget) {
            QueuedRequest qr = remakeQueued(o);
            ++qr.attempts;
            ++fr.retries;
            const double backoff =
                std::ldexp(options_.retry_backoff_us, o.attempts - 1);
            retries.push_back(
                {std::move(qr),
                 std::max(now, o.finish_us + backoff)});
        } else {
            if (options_.retry)
                ++fr.retries_exhausted;
            loseRequest(o.deadline_class);
        }
    };

    // An in-flight arm reached its finish timestamp: completion,
    // transient failure, or hedge resolution. @p now is the event
    // time (== finish, except for the completed prefix of a crashed
    // device's batch, where now is the crash instant).
    auto resolveEntry = [&](InFlight &fl, size_t d, double now) {
        if (fl.fails) {
            ++fr.transient_failures;
            if (fl.hedge_partner != SIZE_MAX) {
                for (const InFlight &partner :
                     inflight[fl.hedge_partner])
                    if (partner.outcome.id == fl.outcome.id)
                        return; // the other arm may still deliver
            }
            resolveFailure(fl.outcome, now);
            return;
        }
        if (fl.hedge_partner != SIZE_MAX) {
            // First successful arm wins; cancel the loser where it
            // runs (its device frees at the winner's completion).
            std::vector<InFlight> &partner_queue =
                inflight[fl.hedge_partner];
            for (size_t i = 0; i < partner_queue.size(); ++i) {
                if (partner_queue[i].outcome.id != fl.outcome.id)
                    continue;
                partner_queue.erase(
                    partner_queue.begin() + static_cast<long>(i));
                free_at[fl.hedge_partner] = now;
                ++fr.hedges_cancelled;
                break;
            }
            if (fl.hedge_secondary)
                ++fr.hedge_wins;
        }
        result.outcomes.push_back(fl.outcome);
        scheduler.completed(d);
    };

    // An in-flight arm was interrupted by its device's crash before
    // finishing: a surviving hedge partner carries the request; else
    // failover re-places it (service restarts) or it is lost.
    auto interruptEntry = [&](const InFlight &fl, double now) {
        if (fl.hedge_partner != SIZE_MAX) {
            for (const InFlight &partner :
                 inflight[fl.hedge_partner])
                if (partner.outcome.id == fl.outcome.id)
                    return; // the surviving arm carries on alone
        }
        if (options_.failover && health.aliveCount() > 0) {
            QueuedRequest qr = remakeQueued(fl.outcome);
            qr.failed_over = true;
            ++fr.failovers;
            if (!requeue(std::move(qr), now))
                loseRequest(fl.outcome.deadline_class);
        } else {
            loseRequest(fl.outcome.deadline_class);
        }
    };

    // Dispatch work to an idle live device: pop (or steal) a head
    // request, extend it with encoding-compatible batch mates (or
    // hedge an interactive head onto a second device), and execute
    // back to back on the device's Session. The virtual clock
    // charges the dispatch overhead once per batch; every report
    // stays the bitwise single-request result.
    auto dispatch = [&](size_t d, double now) {
        if (busy[d] || !health.alive(d))
            return;
        bool stolen = false;
        std::optional<QueuedRequest> head;
        while (true) {
            stolen = false;
            head = queue.pop(d, edf);
            if (!head && scheduler.workStealing()) {
                size_t donor = 0;
                head = queue.steal(d, &donor);
                if (head) {
                    stolen = true;
                    scheduler.recordSteal(donor);
                }
            }
            if (!head)
                return;
            if (!scheduler.dropInfeasible())
                break;
            // EDF overload guard: executing a request that cannot
            // meet its deadline even if started right now converts
            // one miss into a procession of misses (everything
            // behind it slips too). Drop it unexecuted and let the
            // device serve a still-feasible request instead. Under
            // degradation the estimate carries the surviving-
            // capacity headroom factor; slowdown windows scale it
            // on every policy.
            const double est =
                scaledEstimate(head->pool_index, d, now) *
                (options_.degrade ? degrade_factor : 1.0);
            if (now + options_.dispatch_overhead_us + est <=
                head->deadline_us)
                break;
            ++dropped_per_class[static_cast<int>(
                head->deadline_class)];
        }

        // Hedged dispatch: an interactive head is duplicated onto
        // the best other idle live device; the first successful arm
        // wins and cancels the loser. Hedges never batch (the two
        // arms must stay cancellable as a unit).
        size_t hedge_dev = SIZE_MAX;
        if (options_.hedge &&
            head->deadline_class == DeadlineClass::Interactive) {
            double best = kInf;
            for (size_t d2 = 0; d2 < n; ++d2) {
                if (d2 == d || busy[d2] || !health.alive(d2))
                    continue;
                const double est =
                    scaledEstimate(head->pool_index, d2, now);
                if (est < best) {
                    best = est;
                    hedge_dev = d2;
                }
            }
        }
        if (hedge_dev != SIZE_MAX) {
            ++fr.hedges;
            const size_t arms[2] = {d, hedge_dev};
            for (int a = 0; a < 2; ++a) {
                const size_t dev = arms[a];
                ServeOutcome outcome;
                outcome.id = head->id;
                outcome.pool_index = head->pool_index;
                outcome.device = dev;
                outcome.deadline_class = head->deadline_class;
                outcome.arrival_us = head->arrival_us;
                outcome.deadline_us = head->deadline_us;
                outcome.stolen = stolen && a == 0;
                outcome.attempts = head->attempts;
                outcome.failed_over = head->failed_over;
                outcome.hedged = true;
                outcome.start_us =
                    now + options_.dispatch_overhead_us;
                outcome.report = cluster_->device(dev).run(
                    pool_[head->pool_index]);
                outcome.report.device = static_cast<int>(dev);
                outcome.finish_us =
                    outcome.start_us +
                    outcome.report.timeUs() *
                        health.slowdownFactor(dev, outcome.start_us);
                outcome.met_deadline =
                    outcome.finish_us <= head->deadline_us;
                InFlight fl;
                fl.outcome = std::move(outcome);
                fl.fails = injector.transientFails(
                    head->id, head->attempts, dev);
                fl.hedge_partner = arms[1 - a];
                fl.hedge_secondary = a == 1;
                free_at[dev] = fl.outcome.finish_us;
                busy[dev] = true;
                inflight[dev].push_back(std::move(fl));
            }
            return;
        }

        std::vector<QueuedRequest> batch;
        batch.push_back(*head);
        if (options_.microbatch > 1) {
            std::vector<QueuedRequest> mates = queue.popBatchMates(
                d, head->batch_key, options_.microbatch - 1, edf);
            batch.insert(batch.end(), mates.begin(), mates.end());
        }
        if (batch.size() >= 2) {
            ++microbatches;
            microbatched += static_cast<int64_t>(batch.size());
        }
        double t = now + options_.dispatch_overhead_us;
        for (size_t i = 0; i < batch.size(); ++i) {
            const QueuedRequest &member = batch[i];
            ServeOutcome outcome;
            outcome.id = member.id;
            outcome.pool_index = member.pool_index;
            outcome.device = d;
            outcome.deadline_class = member.deadline_class;
            outcome.arrival_us = member.arrival_us;
            outcome.deadline_us = member.deadline_us;
            outcome.stolen = stolen && i == 0;
            outcome.batched_follower = i > 0;
            outcome.attempts = member.attempts;
            outcome.failed_over = member.failed_over;
            outcome.start_us = t;
            outcome.report =
                cluster_->device(d).run(pool_[member.pool_index]);
            outcome.report.device = static_cast<int>(d);
            t += outcome.report.timeUs() *
                 health.slowdownFactor(d, outcome.start_us);
            outcome.finish_us = t;
            outcome.met_deadline = t <= member.deadline_us;
            InFlight fl;
            fl.outcome = std::move(outcome);
            fl.fails = injector.transientFails(member.id,
                                               member.attempts, d);
            inflight[d].push_back(std::move(fl));
        }
        free_at[d] = t;
        busy[d] = true;
    };

    // Crash-stop @p d at @p now: resolve the completed prefix of its
    // in-flight batch, fail over (or lose) the interrupted suffix
    // and the queued backlog, exclude the device from placement and
    // stealing, and rescale the admission bound to the survivors.
    auto applyCrash = [&](size_t d, double now) {
        if (!health.alive(d))
            return; // crash-stop: a second crash is a no-op
        ++fr.crashes;
        health.markCrashed(d, now);
        scheduler.setDeviceAlive(d, false);
        std::vector<InFlight> flight = std::move(inflight[d]);
        inflight[d].clear();
        busy[d] = false;
        for (InFlight &fl : flight) {
            if (fl.outcome.finish_us <= now)
                resolveEntry(fl, d, now);
            else
                interruptEntry(fl, now);
        }
        for (QueuedRequest &qr : queue.drainDevice(d)) {
            const DeadlineClass dclass = qr.deadline_class;
            if (options_.failover && health.aliveCount() > 0) {
                qr.failed_over = true;
                ++fr.failovers;
                if (!requeue(std::move(qr), now))
                    loseRequest(dclass);
            } else {
                loseRequest(dclass);
            }
        }
        if (options_.degrade) {
            surviving_capacity =
                std::max(0.0, surviving_capacity -
                                  device_capacity[d]);
            if (surviving_capacity > 0.0 && full_capacity > 0.0) {
                degrade_factor =
                    full_capacity / surviving_capacity;
                // Under reduced capacity the throughput-oriented
                // class is shed before anything a user waits on.
                queue.setShedBatchFirst(true);
                const double scaled =
                    static_cast<double>(options_.queue_depth) *
                    surviving_capacity / full_capacity;
                queue.setDepthBound(static_cast<size_t>(
                    std::max(1.0, std::floor(scaled + 0.5))));
                std::vector<QueuedRequest> shed;
                queue.shedExcess(&shed);
                accountShed(shed);
            }
        }
    };

    const std::vector<FaultEvent> &fault_events = injector.events();
    size_t next_arrival = 0, next_fault = 0;
    while (true) {
        const double arr_t = next_arrival < arrivals.size()
                                 ? arrivals[next_arrival].time_us
                                 : kInf;
        double free_t = kInf;
        for (size_t d = 0; d < n; ++d)
            if (busy[d])
                free_t = std::min(free_t, free_at[d]);
        double retry_t = kInf;
        for (const PendingRetry &pending : retries)
            retry_t = std::min(retry_t, pending.ready_us);
        const double fault_t = next_fault < fault_events.size()
                                   ? fault_events[next_fault].time_us
                                   : kInf;
        if (arr_t == kInf && free_t == kInf && retry_t == kInf &&
            fault_t == kInf)
            break;

        // Event priority at equal timestamps: faults, then device
        // completions, then retry re-placements, then arrivals — a
        // crash at t kills the batch still in flight at t, and a
        // completion at t frees a device for the arrival at t.
        if (fault_t <= arr_t && fault_t <= free_t &&
            fault_t <= retry_t) {
            const double now = fault_t;
            while (next_fault < fault_events.size() &&
                   fault_events[next_fault].time_us == now) {
                const FaultEvent &event = fault_events[next_fault++];
                if (event.kind == FaultKind::Crash) {
                    applyCrash(event.device, now);
                } else if (health.alive(event.device)) {
                    ++fr.slowdowns;
                    health.addSlowdown(event.device, event.time_us,
                                       event.duration_us,
                                       event.factor);
                }
            }
            for (size_t d = 0; d < n; ++d)
                dispatch(d, now);
            continue;
        }

        if (free_t <= arr_t && free_t <= retry_t) {
            // Device-completion event(s): resolve and free every
            // device whose batch (or cancelled hedge arm) ends now,
            // in ascending index order, then refill them.
            const double now = free_t;
            for (size_t d = 0; d < n; ++d) {
                if (!busy[d] || free_at[d] != now)
                    continue;
                busy[d] = false;
                std::vector<InFlight> flight =
                    std::move(inflight[d]);
                inflight[d].clear();
                for (InFlight &fl : flight)
                    resolveEntry(fl, d, now);
            }
            for (size_t d = 0; d < n; ++d)
                dispatch(d, now);
            continue;
        }

        if (retry_t <= arr_t) {
            // Backoff expiry: re-place every retry that is ready, in
            // (ready, id) order so the schedule stays a pure
            // function of the admitted sequence.
            const double now = retry_t;
            while (true) {
                size_t pick = retries.size();
                for (size_t i = 0; i < retries.size(); ++i) {
                    if (retries[i].ready_us > now)
                        continue;
                    if (pick == retries.size() ||
                        retries[i].ready_us <
                            retries[pick].ready_us ||
                        (retries[i].ready_us ==
                             retries[pick].ready_us &&
                         retries[i].request.id <
                             retries[pick].request.id))
                        pick = i;
                }
                if (pick == retries.size())
                    break;
                QueuedRequest qr = std::move(retries[pick].request);
                retries.erase(retries.begin() +
                              static_cast<long>(pick));
                const DeadlineClass dclass = qr.deadline_class;
                if (!requeue(std::move(qr), now))
                    loseRequest(dclass);
            }
            for (size_t d = 0; d < n; ++d)
                dispatch(d, now);
            continue;
        }

        // Arrival event: admission control, placement, enqueue.
        const Arrival &arrival = arrivals[next_arrival++];
        const double now = arrival.time_us;
        const PoolEntryInfo &entry = info[arrival.pool_index];
        // The SLO stays workload-relative and fault-*independent*:
        // the deadline derives from the healthy reference-device
        // estimate, so a degraded fleet is held to the same bar.
        const double deadline = deadlineFor(
            arrival.deadline_class, now, entry.estimate_us[0]);

        if (health.aliveCount() == 0) {
            // Whole fleet dead: the front door refuses immediately.
            ++rejected_per_class[static_cast<int>(
                arrival.deadline_class)];
            continue;
        }
        if (queue.totalDepth() >= queue.depthBound() &&
            options_.admission == AdmissionPolicy::Reject) {
            ++rejected_per_class[static_cast<int>(
                arrival.deadline_class)];
            continue;
        }

        std::vector<double> estimates(n, 0.0), ready(n, now),
            backlog(n, 0.0);
        for (size_t d = 0; d < n; ++d) {
            if (!health.alive(d))
                continue;
            estimates[d] = scaledEstimate(arrival.pool_index, d, now);
            ready[d] = busy[d] ? free_at[d] : now;
            backlog[d] = edf ? queue.backlogBeforeUs(d, deadline)
                             : queue.backlogUs(d);
        }
        const size_t dev = scheduler.placeArrival(
            options_.policy == ServePolicy::RoundRobin
                ? std::vector<double>{}
                : estimates,
            ready, backlog, deadline);

        QueuedRequest qr;
        qr.id = arrival.id;
        qr.pool_index = arrival.pool_index;
        qr.batch_key = entry.batch_key;
        qr.arrival_us = now;
        qr.deadline_us = deadline;
        qr.estimate_us = scaledEstimate(arrival.pool_index, dev, now);
        qr.deadline_class = arrival.deadline_class;
        qr.device = dev;
        std::vector<QueuedRequest> shed;
        const ServingQueue::Admit admitted = queue.admit(qr, &shed);
        DSTC_ASSERT(admitted == ServingQueue::Admit::Admitted,
                    "reject-on-overload is handled before placement");
        accountShed(shed);

        // The newcomer (or a rebalanced queue) may feed an idle
        // device immediately.
        for (size_t d = 0; d < n; ++d)
            dispatch(d, now);
    }

    std::sort(result.outcomes.begin(), result.outcomes.end(),
              [](const ServeOutcome &a, const ServeOutcome &b) {
                  return a.id < b.id;
              });

    // -- assemble the scorecard --------------------------------------
    ServingStats &stats = result.stats;
    stats.offered = static_cast<int64_t>(arrivals.size());
    stats.per_class.assign(kNumDeadlineClasses, ClassStats{});
    for (const Arrival &arrival : arrivals)
        ++stats.per_class[static_cast<int>(arrival.deadline_class)]
              .offered;

    std::vector<double> latencies;
    std::vector<std::vector<double>> class_latencies(
        kNumDeadlineClasses);
    std::vector<std::vector<double>> class_recovery_latencies(
        kNumDeadlineClasses);
    latencies.reserve(result.outcomes.size());
    int64_t met = 0;
    double makespan = 0.0;
    for (const ServeOutcome &outcome : result.outcomes) {
        const double latency = outcome.finish_us - outcome.arrival_us;
        latencies.push_back(latency);
        const int c = static_cast<int>(outcome.deadline_class);
        ClassStats &cls = stats.per_class[c];
        class_latencies[c].push_back(latency);
        ++cls.completed;
        if (outcome.attempts > 1 || outcome.failed_over) {
            ++cls.recovered;
            class_recovery_latencies[c].push_back(latency);
        }
        if (outcome.met_deadline)
            ++met;
        else
            ++cls.deadline_misses;
        makespan = std::max(makespan, outcome.finish_us);
    }
    for (int c = 0; c < kNumDeadlineClasses; ++c) {
        stats.per_class[c].rejected = rejected_per_class[c];
        stats.per_class[c].shed = shed_per_class[c];
        stats.per_class[c].dropped = dropped_per_class[c];
        stats.per_class[c].lost = lost_per_class[c];
        stats.per_class[c].latency =
            summarizeLatencies(std::move(class_latencies[c]));
        stats.per_class[c].recovery_latency = summarizeLatencies(
            std::move(class_recovery_latencies[c]));
        stats.rejected += rejected_per_class[c];
        stats.shed += shed_per_class[c];
        stats.dropped += dropped_per_class[c];
        stats.deadline_misses += stats.per_class[c].deadline_misses;
    }
    stats.completed = static_cast<int64_t>(result.outcomes.size());
    stats.admitted = stats.offered - stats.rejected;
    stats.steals = scheduler.steals();
    stats.microbatches = microbatches;
    stats.microbatched = microbatched;
    fr.availability =
        stats.completed + fr.lost > 0
            ? static_cast<double>(stats.completed) /
                  static_cast<double>(stats.completed + fr.lost)
            : 1.0;
    stats.faults = fr;
    stats.makespan_us = makespan;
    if (makespan > 0.0) {
        stats.throughput_rpms =
            static_cast<double>(stats.completed) / (makespan / 1e3);
        stats.goodput_rpms =
            static_cast<double>(met) / (makespan / 1e3);
    }
    if (stats.completed > 0)
        stats.deadline_miss_rate =
            static_cast<double>(stats.deadline_misses) /
            static_cast<double>(stats.completed);
    if (stats.offered > 0)
        stats.slo_attainment = static_cast<double>(met) /
                               static_cast<double>(stats.offered);
    stats.latency = summarizeLatencies(std::move(latencies));
    stats.placed_per_device.resize(n);
    stats.completed_per_device.resize(n);
    for (size_t d = 0; d < n; ++d) {
        const DeviceLoad load = scheduler.load(d);
        stats.placed_per_device[d] = load.placed;
        stats.completed_per_device[d] = load.completed;
    }
    return result;
}

bool
ServingEngine::replayMatchesSerial(const ServingResult &result)
{
    // Fresh single-device Sessions — no shared cache, no cluster —
    // replaying the placed sequence in submission order must
    // reproduce every report bit for bit.
    std::vector<std::unique_ptr<Session>> reference;
    reference.reserve(options_.devices.size());
    for (const GpuConfig &cfg : options_.devices)
        reference.push_back(std::make_unique<Session>(cfg));
    for (const ServeOutcome &outcome : result.outcomes) {
        if (outcome.device >= reference.size())
            return false;
        const KernelReport serial =
            reference[outcome.device]->run(pool_[outcome.pool_index]);
        if (!statsBitwiseEqual(outcome.report.stats, serial.stats) ||
            outcome.report.backend != serial.backend ||
            outcome.report.method != serial.method)
            return false;
    }
    return true;
}

} // namespace dstc
