/**
 * @file
 * Micro-benchmark of the online serving subsystem: tail latency,
 * deadline-miss rate and goodput of the ServingEngine over device
 * sets, serving policies and offered-load levels.
 *
 * The workload pool is the heterogeneous resnet18+bert layer mix (the
 * same trace micro_cluster shards). For every (device set, policy)
 * pair the bench runs two open-loop load levels, expressed relative
 * to the device set's estimated capacity: 0.8x (underload — tail
 * latency is the figure of merit) and 2.5x (overload — goodput under
 * backpressure is). All serving metrics are *simulated* (virtual
 * microsecond clock), hence deterministic and comparable across CI
 * hosts; host wall time is recorded for interest only.
 *
 * Every completed request is checked bitwise against a serial
 * single-Session replay on the placed device's config (the serving
 * determinism contract); any divergence aborts the bench.
 * tools/check_bench.py additionally gates the deadline-vs-rr p99 and
 * goodput ratios on the heterogeneous mix.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/runner.h"
#include "serve/serving.h"

using namespace dstc;
using bench::nowMs;

namespace {

/** One (device set, policy, load) measurement. */
struct Point
{
    std::string devices; ///< e.g. "v100+future"
    std::string policy;  ///< "deadline" | "cost" | "rr"
    std::string load;    ///< "0.8x" | "2.5x" (of estimated capacity)
    int num_devices = 0;
    double rate_rpms = 0.0; ///< offered rate (requests / sim ms)
    int offered = 0;
    int completed = 0;
    int rejected = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double miss_rate = 0.0;
    double slo_attainment = 0.0;
    double throughput_rpms = 0.0;
    double goodput_rpms = 0.0;
    int steals = 0;
    int microbatches = 0;

    // Fault sweep fields ("" / "none" / zeros on healthy points).
    std::string faults = "";   ///< fault spec string
    std::string recovery = "none"; ///< recovery policy label
    int lost = 0;
    int retries = 0;
    int failovers = 0;
    int hedges = 0;
    double availability = 1.0;

    double wall_ms = 0.0;       ///< host wall clock (informative)
    bool bitwise_equal = false; ///< vs serial single-Session replay
};

/** One fault-sweep scenario: a spec plus the recovery policy mix. */
struct FaultCase
{
    const char *label;   ///< "recovery" JSON value
    const char *spec;    ///< FaultSpec string ("" = healthy)
    double load_factor;
    bool retry, hedge, failover, degrade;
};

/** A named device set. */
struct DeviceSet
{
    const char *name;
    std::vector<GpuConfig> configs;
};

/** The serving pool: the heterogeneous resnet18+bert layer mix. */
std::vector<KernelRequest>
servingPool()
{
    std::vector<KernelRequest> pool;
    for (const DnnModel &model : {makeResnet18(), makeBertBase()}) {
        const std::vector<KernelRequest> batch =
            ModelRunner::layerRequests(
                model, ModelMethod::DualSparseImplicit, 1);
        pool.insert(pool.end(), batch.begin(), batch.end());
    }
    return pool;
}

Point
runPoint(const DeviceSet &set, ServePolicy policy,
         double load_factor, const char *load_name, double duration_ms,
         const FaultCase *fault = nullptr)
{
    Point p;
    p.devices = set.name;
    p.policy = tokenOf(kServePolicies, policy);
    p.load = load_name;
    p.num_devices = static_cast<int>(set.configs.size());

    ServingOptions opts;
    opts.devices = set.configs;
    opts.policy = policy;
    opts.arrivals.duration_ms = duration_ms;
    opts.arrivals.pattern = TrafficPattern::Bursty;
    opts.arrivals.seed = 7;
    if (fault) {
        p.faults = fault->spec;
        p.recovery = fault->label;
        std::string error;
        if (!FaultSpec::parse(fault->spec, &opts.faults, &error)) {
            std::fprintf(stderr, "bad fault spec '%s': %s\n",
                         fault->spec, error.c_str());
            std::exit(1);
        }
        opts.retry = fault->retry;
        opts.retry_budget = 6;
        opts.hedge = fault->hedge;
        opts.failover = fault->failover;
        opts.degrade = fault->degrade;
    }

    // The offered rate is relative to the device set's estimated
    // capacity, so "0.8x" means the same pressure on every set.
    ServingEngine probe(opts, servingPool());
    opts.arrivals.rate_rpms =
        load_factor * probe.estimatedCapacityRpms();
    p.rate_rpms = opts.arrivals.rate_rpms;

    ServingEngine engine(opts, servingPool());
    const double t0 = nowMs();
    ServingResult result = engine.run();
    p.wall_ms = nowMs() - t0;

    const ServingStats &stats = result.stats;
    p.offered = static_cast<int>(stats.offered);
    p.completed = static_cast<int>(stats.completed);
    p.rejected = static_cast<int>(stats.rejected);
    p.p50_us = stats.latency.p50_us;
    p.p95_us = stats.latency.p95_us;
    p.p99_us = stats.latency.p99_us;
    p.miss_rate = stats.deadline_miss_rate;
    p.slo_attainment = stats.slo_attainment;
    p.throughput_rpms = stats.throughput_rpms;
    p.goodput_rpms = stats.goodput_rpms;
    p.steals = static_cast<int>(stats.steals);
    p.microbatches = static_cast<int>(stats.microbatches);
    p.lost = static_cast<int>(stats.faults.lost);
    p.retries = static_cast<int>(stats.faults.retries);
    p.failovers = static_cast<int>(stats.faults.failovers);
    p.hedges = static_cast<int>(stats.faults.hedges);
    p.availability = stats.faults.availability;
    p.bitwise_equal = engine.replayMatchesSerial(result);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_serve.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_serve", &args))
        return 2;

    bench::warmProcessState(GpuConfig::v100());

    const double duration_ms = args.quick ? 1.0 : 2.0;
    std::vector<DeviceSet> sets = {
        {"v100x2", {GpuConfig::v100(), GpuConfig::v100()}},
        {"v100+future", {GpuConfig::v100(), GpuConfig::futureGpu()}},
    };
    if (!args.quick) {
        sets.insert(sets.begin(), {"v100", {GpuConfig::v100()}});
        sets.push_back({"v100x4",
                        {GpuConfig::v100(), GpuConfig::v100(),
                         GpuConfig::v100(), GpuConfig::v100()}});
    }

    struct Load
    {
        const char *name;
        double factor;
    };
    const std::vector<Load> loads = {{"0.8x", 0.8}, {"2.5x", 2.5}};

    std::vector<Point> points;
    std::printf("%12s %9s %5s | %6s %6s %5s | %8s %8s %8s | %7s %7s\n",
                "devices", "policy", "load", "offer", "done", "rej",
                "p50 us", "p99 us", "miss", "req/ms", "good");
    for (const DeviceSet &set : sets) {
        for (ServePolicy policy :
             {ServePolicy::Deadline, ServePolicy::CostModel,
              ServePolicy::RoundRobin}) {
            // Single-device placement is trivial; one policy covers
            // it (EDF vs FIFO drain still differs, but the placement
            // comparison is the point of the sweep).
            if (set.configs.size() == 1 &&
                policy != ServePolicy::Deadline)
                continue;
            for (const Load &load : loads) {
                Point p = runPoint(set, policy, load.factor,
                                   load.name, duration_ms);
                points.push_back(p);
                std::printf("%12s %9s %5s | %6d %6d %5d | %8.1f "
                            "%8.1f %8.3f | %7.1f %7.1f%s\n",
                            p.devices.c_str(), p.policy.c_str(),
                            p.load.c_str(), p.offered, p.completed,
                            p.rejected, p.p50_us, p.p99_us,
                            p.miss_rate, p.throughput_rpms,
                            p.goodput_rpms,
                            p.bitwise_equal ? "" : "  [MISMATCH]");
                if (!p.bitwise_equal) {
                    std::fprintf(stderr,
                                 "FATAL: serving reports differ from "
                                 "the serial single-Session replay\n");
                    std::exit(1);
                }
            }
        }
    }

    // Fault sweep (v100+future, deadline policy): a mid-run crash
    // with and without recovery — check_bench gates recovery goodput
    // >= the no-recovery baseline — plus transient-only faults with
    // retry, which must lose nothing, and a hedged variant for the
    // interactive tail. The crash instant (500 us) is mid-run for
    // the quick 1 ms sweep and the 25% mark of the full 2 ms one.
    const DeviceSet *fault_set = nullptr;
    for (const DeviceSet &set : sets)
        if (std::string(set.name) == "v100+future")
            fault_set = &set;
    if (!fault_set) {
        std::fprintf(stderr, "fault sweep set missing\n");
        return 1;
    }
    const std::vector<FaultCase> fault_cases = {
        {"failover", "crash@500:d1", 1.5, false, false, true, true},
        {"none", "crash@500:d1", 1.5, false, false, false, false},
        {"retry", "transient:p0.05", 0.8, true, false, true, true},
        {"retry+hedge", "transient:p0.05;crash@500:d1", 0.8, true,
         true, true, true},
    };
    std::printf("\nfault sweep on %s (deadline policy):\n",
                fault_set->name);
    std::printf("%14s %28s | %6s %5s | %7s %7s %7s | %7s %6s\n",
                "recovery", "faults", "done", "lost", "retries",
                "failov", "hedges", "good", "avail");
    for (const FaultCase &fc : fault_cases) {
        Point p = runPoint(*fault_set, ServePolicy::Deadline,
                           fc.load_factor,
                           fc.load_factor > 1.0 ? "1.5x" : "0.8x",
                           duration_ms, &fc);
        points.push_back(p);
        std::printf("%14s %28s | %6d %5d | %7d %7d %7d | %7.1f "
                    "%6.4f%s\n",
                    p.recovery.c_str(), p.faults.c_str(), p.completed,
                    p.lost, p.retries, p.failovers, p.hedges,
                    p.goodput_rpms, p.availability,
                    p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: serving reports differ from the "
                         "serial single-Session replay\n");
            std::exit(1);
        }
    }

    // The serving headline: on the heterogeneous mix the
    // deadline-aware policy must beat round-robin tail latency and
    // goodput.
    for (const Load &load : loads) {
        double dl_p99 = 0.0, rr_p99 = 0.0;
        double dl_good = 0.0, rr_good = 0.0;
        for (const Point &p : points) {
            if (p.devices != "v100+future" || p.load != load.name ||
                !p.faults.empty())
                continue;
            if (p.policy == "deadline") {
                dl_p99 = p.p99_us;
                dl_good = p.goodput_rpms;
            } else if (p.policy == "rr") {
                rr_p99 = p.p99_us;
                rr_good = p.goodput_rpms;
            }
        }
        if (dl_p99 > 0.0 && rr_p99 > 0.0)
            std::printf("\nv100+future @ %s: deadline p99 %.1f us vs "
                        "rr %.1f us (%.2fx), goodput %.1f vs %.1f "
                        "req/ms (%.2fx)\n",
                        load.name, dl_p99, rr_p99, rr_p99 / dl_p99,
                        dl_good, rr_good, dl_good / rr_good);
    }

    bench::BenchJson json(
        "micro_serve", args,
        "serving metrics are simulated and deterministic; wall_ms and "
        "parallel_scaling ~ 1.0 reflect the bench container's "
        "hardware_concurrency (1 = a single hardware thread, where the "
        "pool cannot scale) and are informative only");
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .text("devices", p.devices)
            .text("policy", p.policy)
            .text("load", p.load)
            .integer("num_devices", p.num_devices)
            .number("rate_rpms", p.rate_rpms, 1)
            .integer("offered", p.offered)
            .integer("completed", p.completed)
            .integer("rejected", p.rejected)
            .number("p50_us", p.p50_us, 3)
            .number("p95_us", p.p95_us, 3)
            .number("p99_us", p.p99_us, 3)
            .number("miss_rate", p.miss_rate, 4)
            .number("slo_attainment", p.slo_attainment, 4)
            .number("throughput_rpms", p.throughput_rpms, 2)
            .number("goodput_rpms", p.goodput_rpms, 2)
            .integer("steals", p.steals)
            .integer("microbatches", p.microbatches)
            .text("faults", p.faults)
            .text("recovery", p.recovery)
            .integer("lost", p.lost)
            .integer("retries", p.retries)
            .integer("failovers", p.failovers)
            .integer("hedges", p.hedges)
            .number("availability", p.availability, 4)
            .number("wall_ms", p.wall_ms, 3)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.write();
    return 0;
}
