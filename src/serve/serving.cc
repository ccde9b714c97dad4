#include "serve/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

    ClusterOptions copts;
    copts.devices = options_.devices;
    copts.resources = options_.resources;
    cluster_ = std::make_unique<Cluster>(std::move(copts));
}

void
ServingEngine::buildPoolInfo()
{
    if (!pool_info_.empty())
        return;
    const size_t n = cluster_->numDevices();
    pool_info_.resize(pool_.size());
    for (size_t i = 0; i < pool_.size(); ++i) {
        pool_info_[i].estimate_us.reserve(n);
        for (size_t d = 0; d < n; ++d)
            pool_info_[i].estimate_us.push_back(
                cluster_->estimateOn(d, pool_[i]));
        // Encoding compatibility = same operand contents (or, for
        // synthetic timing requests, the same structural operating
        // point) — exactly what makes two requests share entries in
        // the EncodingCache.
        pool_info_[i].batch_key = requestContentDigest(pool_[i])
                                      .value_or(requestShardKey(pool_[i]));
    }
    device_capacity_.assign(n, 0.0);
    for (size_t d = 0; d < n; ++d) {
        double sum_us = 0.0;
        // One dispatch overhead per request — the no-batching worst
        // case, so "1.0x capacity" is a true saturation point even
        // for policies that never form micro-batches. (For this
        // pool's ~2us kernels the overhead is roughly half the
        // effective service time, not a rounding error.)
        for (const PoolEntry &entry : pool_info_)
            sum_us += entry.estimate_us[d] + kDispatchOverheadUs;
        if (sum_us > 0.0)
            device_capacity_[d] =
                1e3 * static_cast<double>(pool_.size()) / sum_us;
    }
}

double
ServingEngine::estimatedCapacityRpms()
{
    buildPoolInfo();
    double capacity = 0.0;
    for (double c : device_capacity_)
        capacity += c;
    return capacity;
}

namespace {

/** One dispatched request (or hedge arm) executing on a device. */
struct InFlight
{
    QueuedRequest request; ///< as dequeued (retry/failover source)
    ServeOutcome outcome;  ///< start/finish/report already filled
    bool fails = false;    ///< transient failure at its finish
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

ServingResult
ServingEngine::run()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t n = cluster_->numDevices();
    buildPoolInfo();
    const std::vector<PoolEntry> &info = pool_info_;
    const std::vector<Arrival> arrivals =
        ArrivalGenerator(options_.arrivals, pool_.size()).generate();

    ServingQueue queue(n, options_.queue_depth, options_.admission);
    // The Deadline policy drains EDF, lets idle devices steal, and
    // drops dequeued requests whose deadline is already infeasible
    // (the EDF overload guard: without it an overloaded EDF queue
    // serves a procession of about-to-miss requests). The other
    // policies do none of the three.
    const bool edf = options_.policy == ServePolicy::Deadline;

    // -- fault state --------------------------------------------------
    const uint64_t fault_seed =
        options_.fault_seed != 0
            ? options_.fault_seed
            : options_.arrivals.seed ^ 0xfa117ull;
    const FaultInjector injector(options_.faults, n,
                                 options_.arrivals.duration_ms * 1e3,
                                 fault_seed);
    HealthTracker health(n);

    // Healthy fleet capacity: the yardstick graceful degradation
    // rescales the admission depth against.
    const double full_capacity = estimatedCapacityRpms();
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
    uint64_t next_round_robin = 0;
    // What placement and the hedge pick see of each device.
    std::vector<DeviceView> views(n);

    ServingResult result;
    ServingStats &stats = result.stats;
    FaultRecoveryStats &fr = stats.faults;
    stats.per_class.assign(kNumDeadlineClasses, ClassStats{});
    stats.placed_per_device.assign(n, 0);
    stats.completed_per_device.assign(n, 0);

    auto classOf = [&](DeadlineClass dclass) -> ClassStats & {
        return stats.per_class[static_cast<int>(dclass)];
    };

    auto accountShed = [&](const std::vector<QueuedRequest> &shed) {
        for (const QueuedRequest &victim : shed)
            ++classOf(victim.deadline_class).shed;
    };

    auto loseRequest = [&](DeadlineClass dclass) {
        ++fr.lost;
        ++classOf(dclass).lost;
    };

    // The service-time estimate placement and the EDF guard see for
    // device d at virtual time t: the plan-stage estimate scaled by
    // any active slowdown window.
    auto scaledEstimate = [&](size_t pool_index, size_t d, double t) {
        return info[pool_index].estimate_us[d] *
               health.slowdownFactor(d, t);
    };

    // Place @p qr on a live device. RoundRobin takes the k-th live
    // device of its rotation (a crashed device never swallows a
    // slot). The others take the earliest estimated finish: device-
    // ready time plus the backlog the request would wait behind
    // (under Deadline only the earlier-deadline backlog, and a device
    // that meets the deadline ranks ahead of one that misses it)
    // plus its own estimate.
    const bool rotate = options_.policy == ServePolicy::RoundRobin;
    auto place = [&](QueuedRequest &qr, double now) {
        for (size_t d = 0; d < n; ++d) {
            DeviceView &v = views[d];
            v.alive = health.alive(d);
            if (!v.alive || rotate)
                continue;
            v.finish_us =
                (busy[d] ? free_at[d] : now) +
                queue.backlogUs(d, edf ? qr.deadline_us : kInf) +
                scaledEstimate(qr.pool_index, d, now);
            v.meets_deadline = !edf || v.finish_us <= qr.deadline_us;
        }
        const size_t pick = rotate ? nthLive(views, next_round_robin++)
                                   : earliestFinish(views);
        ++stats.placed_per_device[pick];
        qr.device = pick;
        qr.estimate_us = scaledEstimate(qr.pool_index, pick, now);
    };

    // Re-place a retried or failed-over request on the surviving
    // fleet, or lose it when no device is alive. Recovery
    // re-placements were admitted once already and re-enter the
    // queue unbounded.
    auto requeue = [&](QueuedRequest qr, double now) {
        if (health.aliveCount() == 0)
            return loseRequest(qr.deadline_class);
        place(qr, now);
        const ServingQueue::Admit admitted =
            queue.admit(std::move(qr), nullptr, /*force=*/true);
        DSTC_ASSERT(admitted == ServingQueue::Admit::Admitted,
                    "forced admission cannot be refused");
    };

    // A crash took @p qr off its device: re-place it on the
    // survivors (service restarts), or lose it when failover is off
    // or nothing survives.
    auto failOver = [&](QueuedRequest qr, double now) {
        if (!options_.failover || health.aliveCount() == 0)
            return loseRequest(qr.deadline_class);
        qr.failed_over = true;
        ++fr.failovers;
        requeue(std::move(qr), now);
    };

    // A dispatch attempt failed transiently on every arm: retry with
    // exponential backoff while the budget lasts, else the request
    // is lost.
    auto resolveFailure = [&](const InFlight &fl, double now) {
        const int attempts = fl.request.attempts;
        if (options_.retry && attempts < options_.retry_budget) {
            QueuedRequest qr = fl.request;
            ++qr.attempts;
            ++fr.retries;
            const double backoff =
                std::ldexp(options_.retry_backoff_us, attempts - 1);
            retries.push_back(
                {std::move(qr),
                 std::max(now, fl.outcome.finish_us + backoff)});
        } else {
            if (options_.retry)
                ++fr.retries_exhausted;
            loseRequest(fl.request.deadline_class);
        }
    };

    // Whether the hedge partner of @p fl still has its arm in flight.
    auto partnerInFlight = [&](const InFlight &fl) {
        if (fl.hedge_partner == SIZE_MAX)
            return false;
        for (const InFlight &partner : inflight[fl.hedge_partner])
            if (partner.outcome.id == fl.outcome.id)
                return true;
        return false;
    };

    // An in-flight arm reached its finish timestamp: completion,
    // transient failure, or hedge resolution. @p now is the event
    // time (== finish, except for the completed prefix of a crashed
    // device's batch, where now is the crash instant).
    auto resolveEntry = [&](InFlight &fl, size_t d, double now) {
        if (fl.fails) {
            ++fr.transient_failures;
            if (!partnerInFlight(fl)) // else the other arm may deliver
                resolveFailure(fl, now);
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
        ++stats.completed_per_device[d];
    };

    // Execute @p qr on device @p dev from @p start on the device's
    // Session (the report stays the bitwise single-request result;
    // the service time scales by the slowdown at the start) and
    // record it in flight there.
    auto launch = [&](const QueuedRequest &qr, size_t dev,
                      double start) -> InFlight & {
        InFlight fl;
        fl.request = qr;
        ServeOutcome &o = fl.outcome;
        o.id = qr.id;
        o.pool_index = qr.pool_index;
        o.device = dev;
        o.deadline_class = qr.deadline_class;
        o.arrival_us = qr.arrival_us;
        o.deadline_us = qr.deadline_us;
        o.attempts = qr.attempts;
        o.failed_over = qr.failed_over;
        o.start_us = start;
        o.report = cluster_->device(dev).run(pool_[qr.pool_index]);
        o.report.device = static_cast<int>(dev);
        o.finish_us = start + o.report.timeUs() *
                                  health.slowdownFactor(dev, start);
        o.met_deadline = o.finish_us <= qr.deadline_us;
        fl.fails = injector.transientFails(qr.id, qr.attempts, dev);
        free_at[dev] = o.finish_us;
        busy[dev] = true;
        inflight[dev].push_back(std::move(fl));
        return inflight[dev].back();
    };

    // Dispatch work to an idle live device: pop (or steal) a head
    // request, extend it with encoding-compatible batch mates (or
    // hedge an interactive head onto a second device), and execute
    // back to back on the device's Session. The virtual clock
    // charges the dispatch overhead once per batch.
    auto dispatch = [&](size_t d, double now) {
        if (busy[d] || !health.alive(d))
            return;
        bool stolen = false;
        std::optional<QueuedRequest> head;
        while (true) {
            stolen = false;
            head = queue.pop(d, edf);
            if (!head && edf) {
                head = queue.steal(d);
                stolen = head.has_value();
                if (stolen)
                    ++stats.steals;
            }
            if (!head)
                return;
            if (!edf)
                break;
            // The EDF overload guard: executing a request that
            // cannot meet its deadline even if started right now
            // converts one miss into a procession of misses. Drop it
            // unexecuted. Under degradation the estimate carries the
            // surviving-capacity headroom factor.
            const double est =
                scaledEstimate(head->pool_index, d, now) *
                (options_.degrade ? degrade_factor : 1.0);
            if (now + kDispatchOverheadUs + est <= head->deadline_us)
                break;
            ++classOf(head->deadline_class).dropped;
        }
        const double start = now + kDispatchOverheadUs;

        // Hedged dispatch: an interactive head is duplicated onto
        // the other idle live device of the lowest estimate; the
        // first successful arm wins and cancels the loser. Hedges
        // never batch (the two arms must stay cancellable as a unit).
        size_t hedge_dev = n;
        if (options_.hedge &&
            head->deadline_class == DeadlineClass::Interactive) {
            for (size_t d2 = 0; d2 < n; ++d2)
                views[d2] = {d2 != d && !busy[d2] && health.alive(d2),
                             scaledEstimate(head->pool_index, d2, now),
                             true};
            hedge_dev = earliestFinish(views);
        }
        if (hedge_dev != n) {
            ++fr.hedges;
            const size_t arms[2] = {d, hedge_dev};
            for (int a = 0; a < 2; ++a) {
                InFlight &fl = launch(*head, arms[a], start);
                fl.outcome.stolen = stolen && a == 0;
                fl.outcome.hedged = true;
                fl.hedge_partner = arms[1 - a];
                fl.hedge_secondary = a == 1;
            }
            return;
        }

        std::vector<QueuedRequest> batch{*head};
        if (options_.microbatch > 1) {
            std::vector<QueuedRequest> mates = queue.popBatchMates(
                d, head->batch_key, options_.microbatch - 1, edf);
            batch.insert(batch.end(), mates.begin(), mates.end());
        }
        if (batch.size() >= 2) {
            ++stats.microbatches;
            stats.microbatched += static_cast<int64_t>(batch.size());
        }
        double t = start;
        for (size_t i = 0; i < batch.size(); ++i) {
            InFlight &fl = launch(batch[i], d, t);
            fl.outcome.stolen = stolen && i == 0;
            fl.outcome.batched_follower = i > 0;
            t = fl.outcome.finish_us;
        }
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
        busy[d] = false;
        for (InFlight &fl : std::exchange(inflight[d], {})) {
            if (fl.outcome.finish_us <= now)
                resolveEntry(fl, d, now);
            else if (!partnerInFlight(fl)) // else the partner carries on
                failOver(std::move(fl.request), now);
        }
        for (QueuedRequest &qr : queue.drainDevice(d))
            failOver(std::move(qr), now);
        if (options_.degrade) {
            surviving_capacity = std::max(
                0.0, surviving_capacity - device_capacity_[d]);
            if (surviving_capacity > 0.0 && full_capacity > 0.0) {
                degrade_factor = full_capacity / surviving_capacity;
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
        // completion at t frees a device for the arrival at t. Every
        // event ends with one refill sweep over the devices.
        double now;
        if (fault_t <= arr_t && fault_t <= free_t &&
            fault_t <= retry_t) {
            now = fault_t;
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
        } else if (free_t <= arr_t && free_t <= retry_t) {
            // Device-completion event(s): resolve and free every
            // device whose batch (or cancelled hedge arm) ends now,
            // in ascending index order.
            now = free_t;
            for (size_t d = 0; d < n; ++d) {
                if (!busy[d] || free_at[d] != now)
                    continue;
                busy[d] = false;
                for (InFlight &fl : std::exchange(inflight[d], {}))
                    resolveEntry(fl, d, now);
            }
        } else if (retry_t <= arr_t) {
            // Backoff expiry: re-place every retry that is ready, in
            // (ready, id) order so the schedule stays a pure
            // function of the admitted sequence.
            now = retry_t;
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
                requeue(std::move(qr), now);
            }
        } else {
            // Arrival event: admission control, placement, enqueue.
            const Arrival &arrival = arrivals[next_arrival++];
            now = arrival.time_us;
            ClassStats &cls = classOf(arrival.deadline_class);
            ++cls.offered;
            // A dead fleet refuses at the front door; a full queue
            // refuses under Reject (ShedOldest evicts on admit).
            if (health.aliveCount() == 0 ||
                (queue.totalDepth() >= queue.depthBound() &&
                 options_.admission == AdmissionPolicy::Reject)) {
                ++cls.rejected;
                continue;
            }
            QueuedRequest qr;
            qr.id = arrival.id;
            qr.pool_index = arrival.pool_index;
            qr.batch_key = info[arrival.pool_index].batch_key;
            qr.arrival_us = now;
            // The SLO stays workload-relative and fault-independent:
            // the deadline derives from the healthy reference-device
            // estimate, so a degraded fleet is held to the same bar.
            qr.deadline_us =
                deadlineFor(arrival.deadline_class, now,
                            info[arrival.pool_index].estimate_us[0]);
            qr.deadline_class = arrival.deadline_class;
            place(qr, now);
            std::vector<QueuedRequest> shed;
            const ServingQueue::Admit admitted =
                queue.admit(std::move(qr), &shed);
            DSTC_ASSERT(admitted == ServingQueue::Admit::Admitted,
                        "reject-on-overload is handled before "
                        "placement");
            accountShed(shed);
        }
        for (size_t d = 0; d < n; ++d)
            dispatch(d, now);
    }

    // A finish at +inf (stacked or huge slowdowns overflow) is never
    // an event, so the loop ends with such a batch still in flight
    // and its device's queue held: count all of it lost. A hedged
    // request in flight on both arms is lost once.
    for (size_t d = 0; d < n; ++d) {
        for (const InFlight &fl : inflight[d])
            if (!fl.hedge_secondary || !partnerInFlight(fl))
                loseRequest(fl.request.deadline_class);
        for (const QueuedRequest &qr : queue.drainDevice(d))
            loseRequest(qr.deadline_class);
    }

    std::sort(result.outcomes.begin(), result.outcomes.end(),
              [](const ServeOutcome &a, const ServeOutcome &b) {
                  return a.id < b.id;
              });

    // -- assemble the scorecard --------------------------------------
    stats.offered = static_cast<int64_t>(arrivals.size());
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
        ClassStats &cls = stats.per_class[c];
        cls.latency = summarizeLatencies(std::move(class_latencies[c]));
        cls.recovery_latency = summarizeLatencies(
            std::move(class_recovery_latencies[c]));
        stats.rejected += cls.rejected;
        stats.shed += cls.shed;
        stats.dropped += cls.dropped;
        stats.deadline_misses += cls.deadline_misses;
    }
    stats.completed = static_cast<int64_t>(result.outcomes.size());
    stats.admitted = stats.offered - stats.rejected;
    fr.availability =
        stats.completed + fr.lost > 0
            ? static_cast<double>(stats.completed) /
                  static_cast<double>(stats.completed + fr.lost)
            : 1.0;
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
        if (outcome.report.stats != serial.stats ||
            outcome.report.backend != serial.backend ||
            outcome.report.method != serial.method)
            return false;
    }
    return true;
}

} // namespace dstc
