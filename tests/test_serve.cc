/**
 * @file
 * Serving-subsystem tests: the open-loop front end must keep the
 * cluster determinism contract — same seed, same ServingStats; every
 * executed report bitwise identical to a serial single-Session
 * replay — under every policy, device count and worker count, while
 * admission control, work stealing, micro-batching and the EDF
 * overload guard behave as documented.
 */
#include "serve/serving.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace dstc {
namespace {

/** A small mixed pool: distinct operating points (distinct batch
 *  keys) plus one repeated shape (shared batch key). */
std::vector<KernelRequest>
testPool()
{
    std::vector<KernelRequest> pool;
    for (int i = 0; i < 4; ++i) {
        KernelRequest req = KernelRequest::gemm(
            128 << (i % 2), 128, 128, 0.5 + 0.1 * i, 0.7);
        req.method = Method::DualSparse;
        req.seed = 10 + static_cast<uint64_t>(i);
        pool.push_back(req);
    }
    // A density-partitioned hybrid request in the mix: the replay
    // and worker-invariance pins below must hold when a request's
    // backend is itself a composer (clustered synthetic pattern, so
    // its groups actually differ in density).
    KernelRequest hybrid =
        KernelRequest::gemm(256, 128, 128, 0.6, 0.5);
    hybrid.method = Method::Hybrid;
    hybrid.withClusters(8.0, 1.0);
    hybrid.seed = 21;
    pool.push_back(hybrid);
    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    KernelRequest conv = KernelRequest::conv(shape, 0.8, 0.6);
    conv.method = Method::DualSparse;
    conv.seed = 3;
    pool.push_back(conv);
    return pool;
}

ServingOptions
baseOptions()
{
    ServingOptions opts;
    opts.arrivals.rate_rpms = 300.0;
    opts.arrivals.duration_ms = 1.0;
    opts.arrivals.seed = 5;
    return opts;
}

// ---------------------------------------------------------------- //
// ArrivalGenerator

TEST(ArrivalTest, SameOptionsSameSequence)
{
    ArrivalOptions opts;
    opts.rate_rpms = 500.0;
    opts.duration_ms = 2.0;
    opts.pool_size = 7;
    opts.seed = 42;
    for (TrafficPattern pattern :
         {TrafficPattern::Poisson, TrafficPattern::Bursty}) {
        opts.pattern = pattern;
        const std::vector<Arrival> a =
            ArrivalGenerator(opts).generate();
        const std::vector<Arrival> b =
            ArrivalGenerator(opts).generate();
        ASSERT_EQ(a.size(), b.size());
        ASSERT_FALSE(a.empty());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, b[i].id);
            EXPECT_EQ(a[i].time_us, b[i].time_us); // bitwise
            EXPECT_EQ(a[i].deadline_class, b[i].deadline_class);
            EXPECT_EQ(a[i].pool_index, b[i].pool_index);
        }
    }
}

TEST(ArrivalTest, SequenceIsWellFormed)
{
    ArrivalOptions opts;
    opts.rate_rpms = 800.0;
    opts.duration_ms = 3.0;
    opts.pool_size = 5;
    opts.pattern = TrafficPattern::Bursty;
    const std::vector<Arrival> arrivals =
        ArrivalGenerator(opts).generate();
    ASSERT_FALSE(arrivals.empty());
    double prev = -1.0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        EXPECT_EQ(arrivals[i].id, static_cast<int64_t>(i));
        EXPECT_GT(arrivals[i].time_us, prev);
        EXPECT_LT(arrivals[i].time_us, opts.duration_ms * 1e3);
        EXPECT_LT(arrivals[i].pool_index, opts.pool_size);
        prev = arrivals[i].time_us;
    }
}

TEST(ArrivalTest, DifferentSeedsDiffer)
{
    ArrivalOptions opts;
    opts.rate_rpms = 500.0;
    opts.duration_ms = 1.0;
    opts.seed = 1;
    const std::vector<Arrival> a = ArrivalGenerator(opts).generate();
    opts.seed = 2;
    const std::vector<Arrival> b = ArrivalGenerator(opts).generate();
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_TRUE(a.size() != b.size() ||
                a.front().time_us != b.front().time_us);
}

TEST(ArrivalTest, MeanRateTracksRequestForBothPatterns)
{
    ArrivalOptions opts;
    opts.rate_rpms = 1000.0;
    opts.duration_ms = 40.0; // long window so the mean converges
    for (TrafficPattern pattern :
         {TrafficPattern::Poisson, TrafficPattern::Bursty}) {
        opts.pattern = pattern;
        const size_t n = ArrivalGenerator(opts).generate().size();
        const double rate = n / opts.duration_ms;
        EXPECT_NEAR(rate, opts.rate_rpms, 0.15 * opts.rate_rpms)
            << tokenOf(kTrafficPatterns, pattern);
    }
}

TEST(ArrivalTest, ZeroDurationYieldsNoArrivals)
{
    ArrivalOptions opts;
    opts.duration_ms = 0.0;
    EXPECT_TRUE(ArrivalGenerator(opts).generate().empty());
}

// ---------------------------------------------------------------- //
// ServingQueue

QueuedRequest
makeQueued(int64_t id, size_t device, double deadline_us,
           uint64_t key = 0)
{
    QueuedRequest q;
    q.id = id;
    q.device = device;
    q.deadline_us = deadline_us;
    q.estimate_us = 1.0;
    q.batch_key = key;
    return q;
}

TEST(ServingQueueTest, RejectPolicyRefusesAtBound)
{
    ServingQueue queue(2, 2, AdmissionPolicy::Reject);
    EXPECT_EQ(queue.admit(makeQueued(0, 0, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    EXPECT_EQ(queue.admit(makeQueued(1, 1, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    EXPECT_EQ(queue.admit(makeQueued(2, 0, 10.0), nullptr),
              ServingQueue::Admit::Rejected);
    EXPECT_EQ(queue.totalDepth(), 2u);
}

TEST(ServingQueueTest, ShedPolicyEvictsGlobalOldest)
{
    ServingQueue queue(2, 2, AdmissionPolicy::ShedOldest);
    ASSERT_EQ(queue.admit(makeQueued(0, 1, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    ASSERT_EQ(queue.admit(makeQueued(1, 0, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    std::vector<QueuedRequest> shed;
    EXPECT_EQ(queue.admit(makeQueued(2, 0, 10.0), &shed),
              ServingQueue::Admit::Admitted);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].id, 0); // oldest anywhere, not per-device
    EXPECT_EQ(queue.totalDepth(), 2u);
    EXPECT_TRUE(queue.empty(1));
}

TEST(ServingQueueTest, EdfAndFifoPopOrders)
{
    ServingQueue queue(1, 8, AdmissionPolicy::Reject);
    queue.admit(makeQueued(0, 0, 30.0), nullptr);
    queue.admit(makeQueued(1, 0, 10.0), nullptr);
    queue.admit(makeQueued(2, 0, 20.0), nullptr);
    EXPECT_EQ(queue.pop(0, /*edf=*/true)->id, 1); // earliest deadline
    EXPECT_EQ(queue.pop(0, /*edf=*/true)->id, 2);
    queue.admit(makeQueued(3, 0, 1.0), nullptr);
    EXPECT_EQ(queue.pop(0, /*edf=*/false)->id, 0); // FIFO ignores it
    EXPECT_EQ(queue.pop(0, /*edf=*/false)->id, 3);
    EXPECT_FALSE(queue.pop(0, false).has_value());
}

TEST(ServingQueueTest, BatchMatesMatchKeyOnly)
{
    ServingQueue queue(1, 8, AdmissionPolicy::Reject);
    queue.admit(makeQueued(0, 0, 10.0, 7), nullptr);
    queue.admit(makeQueued(1, 0, 10.0, 9), nullptr);
    queue.admit(makeQueued(2, 0, 5.0, 7), nullptr);
    queue.admit(makeQueued(3, 0, 8.0, 7), nullptr);
    const std::vector<QueuedRequest> mates =
        queue.popBatchMates(0, 7, 2, /*edf=*/true);
    ASSERT_EQ(mates.size(), 2u);
    EXPECT_EQ(mates[0].id, 2); // earliest deadline among key 7
    EXPECT_EQ(mates[1].id, 3);
    EXPECT_EQ(queue.depth(0), 2u); // ids 0 (key 7) and 1 (key 9)
}

TEST(ServingQueueTest, StealTakesLeastUrgentFromDeepestQueue)
{
    ServingQueue queue(3, 16, AdmissionPolicy::Reject);
    queue.admit(makeQueued(0, 1, 50.0), nullptr);
    queue.admit(makeQueued(1, 2, 90.0), nullptr);
    queue.admit(makeQueued(2, 2, 20.0), nullptr);
    size_t donor = 99;
    const std::optional<QueuedRequest> stolen =
        queue.steal(0, &donor);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(donor, 2u);        // deepest queue
    EXPECT_EQ(stolen->id, 1);    // its latest deadline
    EXPECT_EQ(stolen->device, 0u); // rewritten to the thief
    EXPECT_EQ(queue.depth(2), 1u);
    EXPECT_FALSE(queue.steal(1, nullptr)
                     .has_value() &&
                 queue.totalDepth() == 0);
}

TEST(ServingQueueTest, ZeroDepthBoundClampsToOne)
{
    // depth 0 would deadlock admission entirely; the queue clamps
    // both the constructor and setDepthBound to >= 1.
    ServingQueue queue(1, 0, AdmissionPolicy::Reject);
    EXPECT_EQ(queue.depthBound(), 1u);
    EXPECT_EQ(queue.admit(makeQueued(0, 0, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    EXPECT_EQ(queue.admit(makeQueued(1, 0, 10.0), nullptr),
              ServingQueue::Admit::Rejected);
    queue.setDepthBound(0);
    EXPECT_EQ(queue.depthBound(), 1u);
}

TEST(ServingQueueTest, EmptyQueueEdgeCases)
{
    ServingQueue queue(2, 4, AdmissionPolicy::ShedOldest);
    // Every extraction on an empty queue is a clean miss, not a
    // crash or a phantom entry.
    EXPECT_FALSE(queue.pop(0, true).has_value());
    EXPECT_FALSE(queue.pop(0, false).has_value());
    EXPECT_FALSE(queue.steal(0, nullptr).has_value());
    EXPECT_TRUE(queue.popBatchMates(0, 7, 3, true).empty());
    EXPECT_TRUE(queue.drainDevice(0).empty());
    EXPECT_EQ(queue.totalDepth(), 0u);
    std::vector<QueuedRequest> shed;
    queue.shedExcess(&shed); // nothing above the bound
    EXPECT_TRUE(shed.empty());
}

TEST(ServingQueueTest, SingleElementShedAndSteal)
{
    ServingQueue queue(2, 1, AdmissionPolicy::ShedOldest);
    ASSERT_EQ(queue.admit(makeQueued(0, 0, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    // Stealing the lone entry hands it to the thief for immediate
    // dispatch — it leaves the queue entirely.
    size_t donor = 99;
    const std::optional<QueuedRequest> stolen =
        queue.steal(1, &donor);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(donor, 0u);
    EXPECT_EQ(stolen->device, 1u);
    EXPECT_EQ(queue.totalDepth(), 0u);
    EXPECT_TRUE(queue.empty(0));
    // Shedding at bound 1 evicts the lone entry for the newcomer.
    ASSERT_EQ(queue.admit(makeQueued(1, 0, 10.0), nullptr),
              ServingQueue::Admit::Admitted);
    std::vector<QueuedRequest> shed;
    EXPECT_EQ(queue.admit(makeQueued(2, 0, 10.0), &shed),
              ServingQueue::Admit::Admitted);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].id, 1);
    EXPECT_EQ(queue.totalDepth(), 1u);
}

TEST(ServingQueueTest, BatchMatesGoneAfterDrain)
{
    // A batch head must not pull mates that a crash drain already
    // removed from the device.
    ServingQueue queue(2, 8, AdmissionPolicy::Reject);
    queue.admit(makeQueued(0, 0, 10.0, 7), nullptr);
    queue.admit(makeQueued(1, 0, 12.0, 7), nullptr);
    queue.admit(makeQueued(2, 1, 14.0, 7), nullptr);
    const std::vector<QueuedRequest> drained = queue.drainDevice(0);
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].id, 0); // id order
    EXPECT_EQ(drained[1].id, 1);
    EXPECT_TRUE(queue.popBatchMates(0, 7, 4, true).empty());
    EXPECT_EQ(queue.depth(1), 1u); // the other device keeps its entry
    EXPECT_EQ(queue.totalDepth(), 1u);
}

TEST(ServingQueueTest, ShedExcessEvictsBatchClassFirst)
{
    ServingQueue queue(1, 8, AdmissionPolicy::ShedOldest);
    QueuedRequest interactive = makeQueued(0, 0, 10.0);
    interactive.deadline_class = DeadlineClass::Interactive;
    QueuedRequest batch = makeQueued(1, 0, 90.0);
    batch.deadline_class = DeadlineClass::Batch;
    QueuedRequest standard = makeQueued(2, 0, 50.0);
    standard.deadline_class = DeadlineClass::Standard;
    queue.admit(interactive, nullptr);
    queue.admit(batch, nullptr);
    queue.admit(standard, nullptr);
    queue.setShedBatchFirst(true);
    queue.setDepthBound(1);
    std::vector<QueuedRequest> shed;
    queue.shedExcess(&shed);
    // Victim order under degradation: batch, then standard; the
    // oldest (interactive, id 0) survives despite being oldest.
    ASSERT_EQ(shed.size(), 2u);
    EXPECT_EQ(shed[0].id, 1);
    EXPECT_EQ(shed[1].id, 2);
    EXPECT_EQ(queue.totalDepth(), 1u);
    EXPECT_EQ(queue.pop(0, false)->id, 0);
}

// ---------------------------------------------------------------- //
// ServingEngine

TEST(ServingEngineTest, SameSeedSameStats)
{
    for (ServePolicy policy :
         {ServePolicy::Deadline, ServePolicy::CostModel,
          ServePolicy::RoundRobin}) {
        ServingOptions opts = baseOptions();
        opts.policy = policy;
        opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu()};
        ServingEngine a(opts, testPool());
        ServingEngine b(opts, testPool());
        const ServingStats sa = a.run().stats;
        const ServingStats sb = b.run().stats;
        EXPECT_GT(sa.offered, 0);
        EXPECT_TRUE(sa == sb) << tokenOf(kServePolicies, policy);
    }
}

TEST(ServingEngineTest, ReplayIsBitwiseAcrossPoliciesAndDevices)
{
    // The acceptance pin: >= 2 policies x device counts {1, 2, 4},
    // every executed report bitwise identical to a serial
    // single-Session replay on the placed device's config.
    for (ServePolicy policy :
         {ServePolicy::Deadline, ServePolicy::CostModel,
          ServePolicy::RoundRobin}) {
        for (size_t devices : {1u, 2u, 4u}) {
            ServingOptions opts = baseOptions();
            opts.policy = policy;
            for (size_t d = 0; d < devices; ++d)
                opts.devices.push_back(
                    d % 2 ? GpuConfig::futureGpu()
                          : GpuConfig::v100());
            ServingEngine engine(opts, testPool());
            ServingResult result = engine.run();
            EXPECT_GT(result.stats.completed, 0)
                << tokenOf(kServePolicies, policy) << " x" << devices;
            EXPECT_TRUE(engine.replayMatchesSerial(result))
                << tokenOf(kServePolicies, policy) << " x" << devices;
        }
    }
}

TEST(ServingEngineTest, StatsAreWorkerCountInvariant)
{
    // The virtual clock is host-serial: compute and encode workers
    // must not change a single stat (work stealing included).
    for (size_t devices : {1u, 2u, 4u}) {
        ServingOptions opts = baseOptions();
        opts.policy = ServePolicy::Deadline; // stealing enabled
        for (size_t d = 0; d < devices; ++d)
            opts.devices.push_back(GpuConfig::v100());
        opts.resources.compute_workers = 1;
        opts.resources.encode_workers = 1;
        ServingEngine serial(opts, testPool());
        const ServingStats reference = serial.run().stats;
        opts.resources.compute_workers = 0; // the shared pool
        opts.resources.encode_workers = 4;
        ServingEngine pooled(opts, testPool());
        EXPECT_TRUE(pooled.run().stats == reference)
            << devices << " devices";
    }
}

TEST(ServingEngineTest, OutcomesAreOrderedAndAccounted)
{
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100(), GpuConfig::v100()};
    ServingEngine engine(opts, testPool());
    const ServingResult result = engine.run();
    const ServingStats &stats = result.stats;
    ASSERT_EQ(static_cast<int64_t>(result.outcomes.size()),
              stats.completed);
    int64_t prev = -1;
    for (const ServeOutcome &o : result.outcomes) {
        EXPECT_GT(o.id, prev);
        prev = o.id;
        EXPECT_GE(o.start_us, o.arrival_us);
        EXPECT_GT(o.finish_us, o.start_us);
        EXPECT_EQ(o.met_deadline, o.finish_us <= o.deadline_us);
    }
    // Everything admitted is eventually executed, shed, dropped or
    // (under faults — none here) lost.
    EXPECT_EQ(stats.admitted, stats.offered - stats.rejected);
    EXPECT_EQ(stats.completed + stats.shed + stats.dropped +
                  stats.faults.lost,
              stats.admitted);
    EXPECT_EQ(stats.faults.lost, 0);
    EXPECT_EQ(stats.faults.availability, 1.0);
    int64_t placed = 0;
    for (int64_t p : stats.placed_per_device)
        placed += p;
    EXPECT_EQ(placed, stats.admitted);
}

TEST(ServingEngineTest, SingleDeviceOverloadAppliesBackpressure)
{
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100()};
    opts.policy = ServePolicy::CostModel; // no infeasible-drop guard
    opts.queue_depth = 4;
    opts.arrivals.rate_rpms = 4000.0; // far beyond one V100
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    EXPECT_GT(stats.rejected, 0);
    EXPECT_EQ(stats.admitted, stats.offered - stats.rejected);
    EXPECT_EQ(stats.completed, stats.admitted); // nothing lost
    EXPECT_LT(stats.slo_attainment, 1.0);
}

TEST(ServingEngineTest, ShedAdmissionPrefersFreshWork)
{
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100()};
    opts.policy = ServePolicy::CostModel;
    opts.admission = AdmissionPolicy::ShedOldest;
    opts.queue_depth = 4;
    opts.arrivals.rate_rpms = 4000.0;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    EXPECT_EQ(stats.rejected, 0); // shed admits everything
    EXPECT_GT(stats.shed, 0);
    EXPECT_EQ(stats.completed + stats.shed, stats.admitted);
}

TEST(ServingEngineTest, DeadlinePolicyDropsInfeasibleUnderOverload)
{
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100()};
    opts.policy = ServePolicy::Deadline;
    opts.arrivals.rate_rpms = 4000.0;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    EXPECT_GT(stats.dropped, 0);
    // The guard exists to keep the served work on time: the miss
    // rate must stay far below the saturated FIFO policies'.
    EXPECT_LT(stats.deadline_miss_rate, 0.2);
    EXPECT_EQ(stats.completed + stats.shed + stats.dropped,
              stats.admitted);
}

TEST(ServingEngineTest, MicroBatchingAmortizesDispatchOverhead)
{
    // A single-shape pool: every queued request is batch-compatible,
    // so micro-batching pays one dispatch overhead per batch instead
    // of one per request — strictly earlier completions.
    std::vector<KernelRequest> pool = {testPool()[0]};
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100()};
    opts.arrivals.rate_rpms = 2000.0;
    opts.dispatch_overhead_us = 5.0;
    opts.microbatch = 1;
    ServingEngine unbatched(opts, pool);
    const ServingStats without = unbatched.run().stats;
    opts.microbatch = 8;
    ServingEngine batched(opts, pool);
    const ServingStats with = batched.run().stats;
    EXPECT_EQ(without.microbatches, 0);
    EXPECT_GT(with.microbatches, 0);
    EXPECT_GT(with.microbatched, with.microbatches);
    EXPECT_GT(with.goodput_rpms, without.goodput_rpms);
}

TEST(ServingEngineTest, DeadlineClassesOrderDeadlines)
{
    ServingOptions opts = baseOptions();
    ServingEngine engine(opts, testPool());
    const double interactive = engine.deadlineFor(
        DeadlineClass::Interactive, 100.0, 10.0);
    const double standard =
        engine.deadlineFor(DeadlineClass::Standard, 100.0, 10.0);
    const double batch =
        engine.deadlineFor(DeadlineClass::Batch, 100.0, 10.0);
    EXPECT_LT(interactive, standard);
    EXPECT_LT(standard, batch);
    EXPECT_GT(interactive, 100.0); // always after the arrival
}

TEST(ServingEngineTest, ZeroDurationRunIsEmpty)
{
    ServingOptions opts = baseOptions();
    opts.arrivals.duration_ms = 0.0;
    ServingEngine engine(opts, testPool());
    const ServingResult result = engine.run();
    EXPECT_EQ(result.stats.offered, 0);
    EXPECT_EQ(result.stats.completed, 0);
    EXPECT_TRUE(result.outcomes.empty());
    EXPECT_EQ(result.stats.latency.count, 0);
    EXPECT_TRUE(engine.replayMatchesSerial(result));
}

TEST(ServingEngineTest, WorkStealingOnlyUnderDeadlinePolicy)
{
    ServingOptions opts = baseOptions();
    opts.devices = {GpuConfig::v100(), GpuConfig::futureGpu()};
    opts.arrivals.rate_rpms = 1500.0;
    opts.policy = ServePolicy::RoundRobin;
    ServingEngine rr(opts, testPool());
    EXPECT_EQ(rr.run().stats.steals, 0);
    opts.policy = ServePolicy::CostModel;
    ServingEngine cost(opts, testPool());
    EXPECT_EQ(cost.run().stats.steals, 0);
}

// ---------------------------------------------------------------- //
// Golden grid: one 64-bit digest of every stat and outcome across the
// policy x admission x micro-batch x fault grid.

/** splitmix64-style fold of one 64-bit word into a running digest. */
class Digest
{
  public:
    Digest &
    u64(uint64_t v)
    {
        uint64_t z = (h_ ^ v) + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h_ = z ^ (z >> 31);
        return *this;
    }
    Digest &i64(int64_t v) { return u64(static_cast<uint64_t>(v)); }
    Digest &
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }
    Digest &
    latency(const LatencySummary &s)
    {
        return i64(s.count)
            .f64(s.mean_us)
            .f64(s.p50_us)
            .f64(s.p95_us)
            .f64(s.p99_us)
            .f64(s.max_us);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0;
};

void
foldStats(const ServingStats &s, Digest *d)
{
    d->i64(s.offered)
        .i64(s.admitted)
        .i64(s.rejected)
        .i64(s.shed)
        .i64(s.dropped)
        .i64(s.completed)
        .i64(s.deadline_misses)
        .i64(s.steals)
        .i64(s.microbatches)
        .i64(s.microbatched);
    const FaultRecoveryStats &f = s.faults;
    d->i64(f.crashes)
        .i64(f.slowdowns)
        .i64(f.transient_failures)
        .i64(f.retries)
        .i64(f.retries_exhausted)
        .i64(f.failovers)
        .i64(f.hedges)
        .i64(f.hedge_wins)
        .i64(f.hedges_cancelled)
        .i64(f.lost)
        .f64(f.availability);
    d->f64(s.makespan_us)
        .f64(s.throughput_rpms)
        .f64(s.goodput_rpms)
        .f64(s.deadline_miss_rate)
        .f64(s.slo_attainment)
        .latency(s.latency);
    d->u64(s.per_class.size());
    for (const ClassStats &c : s.per_class)
        d->i64(c.offered)
            .i64(c.completed)
            .i64(c.deadline_misses)
            .i64(c.rejected)
            .i64(c.shed)
            .i64(c.dropped)
            .i64(c.lost)
            .i64(c.recovered)
            .latency(c.latency)
            .latency(c.recovery_latency);
    d->u64(s.placed_per_device.size());
    for (int64_t p : s.placed_per_device)
        d->i64(p);
    d->u64(s.completed_per_device.size());
    for (int64_t c : s.completed_per_device)
        d->i64(c);
}

void
foldOutcome(const ServeOutcome &o, Digest *d)
{
    const uint64_t flags = (o.met_deadline ? 1u : 0u) |
                           (o.stolen ? 2u : 0u) |
                           (o.batched_follower ? 4u : 0u) |
                           (o.failed_over ? 8u : 0u) |
                           (o.hedged ? 16u : 0u);
    d->i64(o.id)
        .u64(o.device)
        .f64(o.start_us)
        .f64(o.finish_us)
        .i64(o.attempts)
        .u64(flags);
}

/** Assert the cell's invariants, fold it into @p digest and add its
 *  event counters to @p seen. */
void
runGoldenCell(const ServingOptions &opts, const std::string &label,
              Digest *digest, ServingStats *seen)
{
    ServingEngine engine(opts, testPool());
    const ServingResult result = engine.run();
    const ServingStats &s = result.stats;
    EXPECT_GT(s.offered, 0) << label;
    EXPECT_EQ(s.admitted, s.offered - s.rejected) << label;
    EXPECT_EQ(s.completed + s.shed + s.dropped + s.faults.lost,
              s.admitted)
        << label;
    EXPECT_TRUE(engine.replayMatchesSerial(result)) << label;
    seen->rejected += s.rejected;
    seen->shed += s.shed;
    seen->dropped += s.dropped;
    seen->steals += s.steals;
    seen->microbatches += s.microbatches;
    seen->faults.crashes += s.faults.crashes;
    seen->faults.failovers += s.faults.failovers;
    seen->faults.retries += s.faults.retries;
    seen->faults.hedge_wins += s.faults.hedge_wins;
    seen->faults.lost += s.faults.lost;
    foldStats(s, digest);
    digest->u64(result.outcomes.size());
    for (const ServeOutcome &o : result.outcomes)
        foldOutcome(o, digest);
}

TEST(ServingGoldenTest, GridDigestIsPinned)
{
    const std::string fault_spec =
        "crash@600:d1;slow@100+300x2:d0;transient:p0.05;randcrash:1";
    ServingOptions base = baseOptions();
    base.devices = {GpuConfig::v100(), GpuConfig::a100Like(),
                    GpuConfig::futureGpu()};
    base.arrivals.rate_rpms = 900.0;
    base.queue_depth = 24;
    Digest digest;
    ServingStats seen;
    for (ServePolicy policy :
         {ServePolicy::Deadline, ServePolicy::CostModel,
          ServePolicy::RoundRobin}) {
        for (AdmissionPolicy admission :
             {AdmissionPolicy::Reject, AdmissionPolicy::ShedOldest}) {
            for (size_t microbatch : {1u, 4u}) {
                for (bool faulted : {false, true}) {
                    ServingOptions opts = base;
                    opts.policy = policy;
                    opts.admission = admission;
                    opts.microbatch = microbatch;
                    if (faulted) {
                        std::string error;
                        ASSERT_TRUE(FaultSpec::parse(
                            fault_spec, &opts.faults, &error))
                            << error;
                        opts.retry = true;
                        opts.hedge = true;
                    }
                    runGoldenCell(
                        opts,
                        std::string(tokenOf(kServePolicies, policy)) +
                            (admission == AdmissionPolicy::Reject
                                 ? "/reject"
                                 : "/shed") +
                            "/mb" + std::to_string(microbatch) +
                            (faulted ? "/faulted" : "/healthy"),
                        &digest, &seen);
                }
            }
        }
    }
    // The no-recovery baseline: a crash loses what the device held,
    // and the admission bound stays at its healthy depth.
    ServingOptions bare = base;
    ASSERT_TRUE(FaultSpec::parse(fault_spec, &bare.faults, nullptr));
    bare.retry = true;
    bare.hedge = true;
    bare.failover = false;
    bare.degrade = false;
    runGoldenCell(bare, "deadline/no-failover/no-degrade", &digest,
                  &seen);

    // The grid reaches every decision the digest is meant to pin.
    EXPECT_GT(seen.rejected, 0);
    EXPECT_GT(seen.shed, 0);
    EXPECT_GT(seen.dropped, 0);
    EXPECT_GT(seen.steals, 0);
    EXPECT_GT(seen.microbatches, 0);
    EXPECT_GT(seen.faults.crashes, 0);
    EXPECT_GT(seen.faults.failovers, 0);
    EXPECT_GT(seen.faults.retries, 0);
    EXPECT_GT(seen.faults.hedge_wins, 0);
    EXPECT_GT(seen.faults.lost, 0);
    EXPECT_EQ(digest.value(), 0x3468bf29432d3895ull)
        << std::hex << "0x" << digest.value();
}

} // namespace
} // namespace dstc
