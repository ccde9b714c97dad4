/**
 * @file
 * Fault-injection and recovery tests: fault scenarios must be exactly
 * as deterministic as healthy runs (same seed + script = identical
 * ServingStats for any worker count), every *completed* request must
 * still replay bitwise on a fresh serial Session, and the recovery
 * policies — retry, failover, hedging, graceful degradation — must
 * behave as documented, including the degenerate whole-fleet-dead
 * case.
 */
#include "serve/faults.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/serving.h"

namespace dstc {
namespace {

/** Same shape as test_serve's pool: distinct operating points plus a
 *  repeated shape so micro-batching stays in play under faults. */
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
    return pool;
}

ServingOptions
baseOptions()
{
    ServingOptions opts;
    opts.arrivals.rate_rpms = 400.0;
    opts.arrivals.duration_ms = 1.0;
    opts.arrivals.seed = 5;
    return opts;
}

// ---------------------------------------------------------------- //
// FaultSpec parsing

TEST(FaultSpecTest, ParsesEveryTokenKind)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::parse(
        "crash@500:d1;slow@200+400x2.5:d0;transient:p0.05;"
        "randcrash:2",
        &spec, &error))
        << error;
    ASSERT_EQ(spec.events.size(), 2u);
    EXPECT_EQ(spec.events[0].kind, FaultKind::Crash);
    EXPECT_EQ(spec.events[0].device, 1u);
    EXPECT_EQ(spec.events[0].time_us, 500.0);
    EXPECT_EQ(spec.events[1].kind, FaultKind::Slowdown);
    EXPECT_EQ(spec.events[1].device, 0u);
    EXPECT_EQ(spec.events[1].time_us, 200.0);
    EXPECT_EQ(spec.events[1].duration_us, 400.0);
    EXPECT_EQ(spec.events[1].factor, 2.5);
    EXPECT_EQ(spec.transient_prob, 0.05);
    EXPECT_EQ(spec.random_crashes, 2);
    EXPECT_FALSE(spec.empty());
}

TEST(FaultSpecTest, MalformedSpecsFailWithMessage)
{
    // Every malformed input is an error with a message, never a
    // silent default.
    for (const char *bad :
         {"", ";", "bogus", "crash@:d0", "crash@-5:d0", "crash@100",
          "crash@100:x0", "crash@100:d", "crash@100:d1x",
          "slow@100x2:d0", "slow@100+0x2:d0", "slow@100+50x0.5:d0",
          "slow@100+50:d0", "transient:0.5", "transient:p",
          "transient:p1.0", "transient:p-0.1", "transient:pfoo",
          "randcrash:", "randcrash:-1", "randcrash:1.5",
          "crash@100:d0;;crash@200:d1", "crash@1e:d0",
          // Non-finite numbers and counts past int.
          "crash@nan:d0", "crash@inf:d0", "slow@nan+1x2:d0",
          "slow@0+infx2:d0", "slow@0+1e9xinf:d0", "slow@0+1e9xnan:d0",
          "transient:pnan", "randcrash:4294967297",
          "randcrash:2147483647;randcrash:1"}) {
        FaultSpec spec;
        std::string error;
        EXPECT_FALSE(FaultSpec::parse(bad, &spec, &error))
            << "accepted: '" << bad << "'";
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(FaultSpecTest, EmptySpecIsEmpty)
{
    FaultSpec spec;
    EXPECT_TRUE(spec.empty());
    FaultSpec zero;
    std::string error;
    ASSERT_TRUE(FaultSpec::parse("transient:p0", &zero, &error));
    EXPECT_TRUE(zero.empty()); // p = 0 injects nothing
}

// ---------------------------------------------------------------- //
// FaultInjector

TEST(FaultInjectorTest, EventsAreSortedAndFleetFiltered)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::parse(
        "crash@900:d0;slow@100+50x2:d1;crash@400:d7", &spec,
        &error));
    // d7 is outside a 2-device fleet: dropped, not an error (scripts
    // are fleet-size agnostic).
    const FaultInjector injector(spec, 2, 1000.0, 1);
    ASSERT_EQ(injector.events().size(), 2u);
    EXPECT_EQ(injector.events()[0].time_us, 100.0);
    EXPECT_EQ(injector.events()[1].time_us, 900.0);
}

TEST(FaultInjectorTest, RandomCrashesAreSeededAndInWindow)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::parse("randcrash:3", &spec, &error));
    const FaultInjector a(spec, 4, 1000.0, 42);
    const FaultInjector b(spec, 4, 1000.0, 42);
    const FaultInjector c(spec, 4, 1000.0, 43);
    ASSERT_EQ(a.events().size(), 3u);
    ASSERT_EQ(b.events().size(), 3u);
    bool differs = false;
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a.events()[i].time_us, b.events()[i].time_us);
        EXPECT_EQ(a.events()[i].device, b.events()[i].device);
        EXPECT_GE(a.events()[i].time_us, 0.0);
        EXPECT_LT(a.events()[i].time_us, 1000.0);
        EXPECT_LT(a.events()[i].device, 4u);
        if (a.events()[i].time_us != c.events()[i].time_us ||
            a.events()[i].device != c.events()[i].device)
            differs = true;
    }
    EXPECT_TRUE(differs); // a different seed draws different crashes
}

TEST(FaultInjectorTest, TransientDrawIsAPureFunction)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::parse("transient:p0.3", &spec, &error));
    const FaultInjector a(spec, 2, 1000.0, 7);
    const FaultInjector b(spec, 2, 1000.0, 7);
    int failures = 0;
    bool attempt_matters = false, device_matters = false;
    for (int64_t id = 0; id < 200; ++id) {
        EXPECT_EQ(a.transientFails(id, 1, 0),
                  b.transientFails(id, 1, 0));
        failures += a.transientFails(id, 1, 0) ? 1 : 0;
        if (a.transientFails(id, 1, 0) != a.transientFails(id, 2, 0))
            attempt_matters = true;
        if (a.transientFails(id, 1, 0) != a.transientFails(id, 1, 1))
            device_matters = true;
    }
    // p = 0.3 over 200 draws: loose bounds, deterministic outcome.
    EXPECT_GT(failures, 20);
    EXPECT_LT(failures, 120);
    EXPECT_TRUE(attempt_matters); // retries re-draw
    EXPECT_TRUE(device_matters);  // hedge arms draw independently

    FaultSpec never;
    ASSERT_TRUE(FaultSpec::parse("transient:p0", &never, &error));
    const FaultInjector none(never, 2, 1000.0, 7);
    for (int64_t id = 0; id < 50; ++id)
        EXPECT_FALSE(none.transientFails(id, 1, 0));
}

// ---------------------------------------------------------------- //
// HealthTracker

TEST(HealthTrackerTest, CrashesArePermanentAndCounted)
{
    HealthTracker health(3);
    EXPECT_EQ(health.aliveCount(), 3u);
    EXPECT_TRUE(health.alive(1));
    health.markCrashed(1, 250.0);
    EXPECT_FALSE(health.alive(1));
    EXPECT_EQ(health.aliveCount(), 2u);
    EXPECT_EQ(health.crashTimeUs(1), 250.0);
    EXPECT_GT(health.crashTimeUs(0), 1e30); // +inf while alive
}

TEST(HealthTrackerTest, SlowdownWindowsMultiply)
{
    HealthTracker health(1);
    health.addSlowdown(0, 100.0, 200.0, 2.0); // [100, 300)
    health.addSlowdown(0, 200.0, 200.0, 3.0); // [200, 400)
    EXPECT_EQ(health.slowdownFactor(0, 50.0), 1.0);
    EXPECT_EQ(health.slowdownFactor(0, 150.0), 2.0);
    EXPECT_EQ(health.slowdownFactor(0, 250.0), 6.0); // overlap
    EXPECT_EQ(health.slowdownFactor(0, 350.0), 3.0);
    EXPECT_EQ(health.slowdownFactor(0, 400.0), 1.0); // half-open
}

// ---------------------------------------------------------------- //
// ServingEngine under faults

ServingOptions
faultedOptions(const std::string &spec, size_t devices)
{
    ServingOptions opts = baseOptions();
    for (size_t d = 0; d < devices; ++d)
        opts.devices.push_back(d % 2 ? GpuConfig::futureGpu()
                                     : GpuConfig::v100());
    std::string error;
    EXPECT_TRUE(FaultSpec::parse(spec, &opts.faults, &error))
        << error;
    return opts;
}

TEST(FaultServingTest, FaultedStatsAreDeterministicForAnyWorkers)
{
    // The tentpole pin: same seed + script = bitwise-identical stats
    // across worker settings x device counts {1, 2, 4}, with
    // every recovery policy engaged at once.
    for (size_t devices : {1u, 2u, 4u}) {
        ServingOptions opts = faultedOptions(
            "crash@600:d1;slow@100+300x2:d0;transient:p0.05;"
            "randcrash:1",
            devices);
        opts.arrivals.rate_rpms = 900.0;
        opts.retry = true;
        opts.hedge = true;
        opts.resources.compute_workers = 1;
        opts.resources.encode_workers = 1;
        ServingEngine serial(opts, testPool());
        const ServingStats reference = serial.run().stats;
        EXPECT_GT(reference.offered, 0);
        opts.resources.compute_workers = 0; // the shared pool
        opts.resources.encode_workers = 4;
        ServingEngine pooled(opts, testPool());
        EXPECT_TRUE(pooled.run().stats == reference)
            << devices << " devices";
    }
}

TEST(FaultServingTest, CompletedRequestsReplayBitwiseUnderFaults)
{
    // The serving determinism contract survives every fault class:
    // completed requests executed on a crashed-then-failed-over,
    // slowed, retried or hedged timeline still replay bit for bit.
    for (size_t devices : {2u, 4u}) {
        ServingOptions opts = faultedOptions(
            "crash@500:d0;slow@200+300x3:d1;transient:p0.04",
            devices);
        opts.arrivals.rate_rpms = 800.0;
        opts.retry = true;
        opts.hedge = true;
        ServingEngine engine(opts, testPool());
        ServingResult result = engine.run();
        EXPECT_GT(result.stats.completed, 0) << devices;
        EXPECT_TRUE(engine.replayMatchesSerial(result)) << devices;
    }
}

TEST(FaultServingTest, AccountingIdentityHoldsUnderFaults)
{
    ServingOptions opts = faultedOptions(
        "crash@400:d1;transient:p0.1", 2);
    opts.arrivals.rate_rpms = 1200.0;
    opts.retry = true;
    opts.retry_budget = 2;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    // Every admitted request ends exactly one way.
    EXPECT_EQ(stats.completed + stats.shed + stats.dropped +
                  stats.faults.lost,
              stats.admitted);
    int64_t class_lost = 0;
    for (const ClassStats &cls : stats.per_class)
        class_lost += cls.lost;
    EXPECT_EQ(class_lost, stats.faults.lost);
    EXPECT_GE(stats.faults.availability, 0.0);
    EXPECT_LE(stats.faults.availability, 1.0);
}

TEST(FaultServingTest, WholeFleetCrashAtZeroDegeneratesGracefully)
{
    // Crash everything at t = 0: the run must terminate (no hang),
    // complete nothing, refuse every arrival, and stay deterministic.
    for (size_t devices : {1u, 2u}) {
        std::string spec = "crash@0:d0";
        for (size_t d = 1; d < devices; ++d)
            spec += ";crash@0:d" + std::to_string(d);
        ServingOptions opts = faultedOptions(spec, devices);
        opts.retry = true;
        opts.hedge = true;
        ServingEngine a(opts, testPool());
        ServingEngine b(opts, testPool());
        const ServingStats sa = a.run().stats;
        EXPECT_GT(sa.offered, 0);
        EXPECT_EQ(sa.completed, 0);
        EXPECT_EQ(sa.rejected, sa.offered);
        EXPECT_EQ(sa.faults.crashes,
                  static_cast<int64_t>(devices));
        EXPECT_TRUE(sa == b.run().stats);
    }
}

TEST(FaultServingTest, TransientOnlyWithRetryLosesNothing)
{
    // The hard gate: under transient-only faults with retry on, no
    // request is ever lost (the budget covers the failure rate).
    ServingOptions opts = faultedOptions("transient:p0.1", 2);
    opts.arrivals.rate_rpms = 800.0;
    opts.retry = true;
    opts.retry_budget = 6;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    EXPECT_GT(stats.faults.transient_failures, 0);
    EXPECT_GT(stats.faults.retries, 0);
    EXPECT_EQ(stats.faults.lost, 0);
    EXPECT_EQ(stats.faults.availability, 1.0);
    int64_t recovered = 0;
    for (const ClassStats &cls : stats.per_class)
        recovered += cls.recovered;
    EXPECT_GT(recovered, 0);
}

TEST(FaultServingTest, WithoutRetryTransientsLoseRequests)
{
    ServingOptions opts = faultedOptions("transient:p0.1", 2);
    opts.arrivals.rate_rpms = 800.0;
    opts.retry = false;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    EXPECT_GT(stats.faults.lost, 0);
    EXPECT_EQ(stats.faults.lost, stats.faults.transient_failures);
    EXPECT_LT(stats.faults.availability, 1.0);
}

TEST(FaultServingTest, FailoverDrainsCrashedDeviceLosslessly)
{
    ServingOptions opts = faultedOptions("crash@300:d1", 2);
    opts.arrivals.rate_rpms = 1500.0; // a real backlog at the crash
    ServingEngine with(opts, testPool());
    const ServingStats recovered = with.run().stats;
    EXPECT_EQ(recovered.faults.lost, 0);
    EXPECT_GT(recovered.faults.failovers, 0);

    opts.failover = false;
    opts.degrade = false;
    ServingEngine without(opts, testPool());
    const ServingStats lost = without.run().stats;
    EXPECT_GT(lost.faults.lost, 0);
    EXPECT_EQ(lost.faults.failovers, 0);
    // The gated property: recovery turns lost work into goodput.
    EXPECT_GE(recovered.goodput_rpms, lost.goodput_rpms);
}

TEST(FaultServingTest, CrashedDeviceReceivesNoFurtherWork)
{
    ServingOptions opts = faultedOptions("crash@200:d0", 2);
    opts.arrivals.rate_rpms = 1000.0;
    ServingEngine engine(opts, testPool());
    ServingResult result = engine.run();
    for (const ServeOutcome &o : result.outcomes)
        if (o.device == 0) {
            EXPECT_LE(o.start_us, 200.0) << "dispatched after crash";
        }
    EXPECT_TRUE(engine.replayMatchesSerial(result));
}

TEST(FaultServingTest, SlowdownRoutesWorkAroundTheSlowDevice)
{
    // An extreme slowdown window on d0: the cost/deadline placement
    // sees the scaled estimate and shifts load to d1 relative to the
    // healthy run.
    ServingOptions healthy_opts = baseOptions();
    healthy_opts.devices = {GpuConfig::v100(), GpuConfig::v100()};
    healthy_opts.arrivals.rate_rpms = 600.0;
    ServingEngine healthy(healthy_opts, testPool());
    const ServingStats before = healthy.run().stats;

    ServingOptions opts = faultedOptions("slow@0+1000x20:d0", 2);
    opts.devices = {GpuConfig::v100(), GpuConfig::v100()};
    opts.arrivals.rate_rpms = 600.0;
    ServingEngine slowed(opts, testPool());
    const ServingStats after = slowed.run().stats;
    EXPECT_EQ(after.faults.slowdowns, 1);
    EXPECT_LT(after.placed_per_device[0], before.placed_per_device[0]);
    EXPECT_GT(after.placed_per_device[1], before.placed_per_device[1]);
}

TEST(FaultServingTest, HedgingDuplicatesInteractiveDispatches)
{
    ServingOptions opts = faultedOptions("transient:p0.05", 2);
    opts.arrivals.rate_rpms = 300.0; // idle capacity to hedge into
    opts.retry = true;
    opts.hedge = true;
    ServingEngine engine(opts, testPool());
    ServingResult result = engine.run();
    const FaultRecoveryStats &fr = result.stats.faults;
    EXPECT_GT(fr.hedges, 0);
    EXPECT_LE(fr.hedge_wins, fr.hedges);
    EXPECT_LE(fr.hedges_cancelled, fr.hedges);
    int64_t hedged_outcomes = 0;
    for (const ServeOutcome &o : result.outcomes) {
        if (!o.hedged)
            continue;
        ++hedged_outcomes;
        // Only the interactive class hedges, and only the winning
        // arm completes.
        EXPECT_EQ(o.deadline_class, DeadlineClass::Interactive);
    }
    // At most one arm of each hedge completes; every cancelled loser
    // implies a winner that did.
    EXPECT_LE(hedged_outcomes, fr.hedges);
    EXPECT_GE(hedged_outcomes, fr.hedges_cancelled);
    EXPECT_TRUE(engine.replayMatchesSerial(result));
}

TEST(FaultServingTest, DegradationShedsBatchClassFirst)
{
    // Crash one of two devices with a tight queue under ShedOldest:
    // with degradation the shrunken bound evicts batch-class work
    // before interactive work.
    ServingOptions opts = faultedOptions("crash@200:d1", 2);
    opts.admission = AdmissionPolicy::ShedOldest;
    opts.queue_depth = 16;
    opts.arrivals.rate_rpms = 2500.0;
    opts.degrade = true;
    ServingEngine engine(opts, testPool());
    const ServingStats stats = engine.run().stats;
    ASSERT_GT(stats.shed, 0);
    const ClassStats &interactive =
        stats.per_class[static_cast<int>(DeadlineClass::Interactive)];
    const ClassStats &batch =
        stats.per_class[static_cast<int>(DeadlineClass::Batch)];
    // The batch class pays disproportionately: every batch arrival
    // sheds before any interactive one once degradation is on.
    EXPECT_GT(batch.shed, 0);
    if (interactive.offered > 0 && batch.offered > 0) {
        EXPECT_GE(static_cast<double>(batch.shed) / batch.offered,
                  static_cast<double>(interactive.shed) /
                      interactive.offered);
    }
}

TEST(FaultServingTest, FaultSeedZeroDerivesFromArrivalSeed)
{
    // fault_seed = 0 must still be fully deterministic (derived), and
    // an explicit different fault seed must change the random draws.
    ServingOptions opts = faultedOptions("randcrash:1", 4);
    opts.arrivals.rate_rpms = 900.0;
    ServingEngine a(opts, testPool());
    ServingEngine b(opts, testPool());
    const ServingStats sa = a.run().stats;
    EXPECT_TRUE(sa == b.run().stats);
    EXPECT_EQ(sa.faults.crashes, 1);
}

} // namespace
} // namespace dstc
