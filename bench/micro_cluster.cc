/**
 * @file
 * Micro-benchmark of Cluster placement: throughput and placement
 * quality over device sets and policies. The workload is a serving
 * trace — the model zoo's layer batches (conv + GEMM mixed)
 * replicated as if the same models kept arriving — run as one
 * runBatch on a fresh cluster (each batch places from idle devices,
 * by the earliestFinish / nthLive rule of cluster.h) over
 * homogeneous and heterogeneous device sets under each
 * PlacementPolicy.
 *
 * Each point records the *simulated* makespan (max over devices of
 * the summed kernel times placed there) and throughput, which are
 * deterministic — pure functions of the request sequence and the
 * machine configs — so the checked-in numbers are comparable across
 * CI hosts; host wall time is recorded for interest only. Placement
 * quality is the cost-model-vs-round-robin makespan ratio on the
 * heterogeneous mix (tools/check_bench.py gates it).
 *
 * Every report is also checked bitwise against a serial
 * single-Session run on the placed device's config (the cluster
 * determinism contract); any divergence aborts the bench.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cluster.h"
#include "model/runner.h"
#include "timing/stats.h"

using namespace dstc;
using bench::nowMs;

namespace {

/** One (device set, policy) measurement. */
struct Point
{
    std::string devices; ///< e.g. "v100+future"
    std::string policy;  ///< "cost" | "rr" | "shard"
    int num_devices = 0;
    int requests = 0;
    double makespan_us = 0.0;   ///< simulated, deterministic
    double sum_time_us = 0.0;   ///< simulated, deterministic
    double throughput_rpms = 0.0; ///< requests per simulated ms
    double wall_ms = 0.0;       ///< host wall clock (informative)
    bool bitwise_equal = false; ///< vs serial single-Session runs
};

/** A named device set. */
struct DeviceSet
{
    const char *name;
    std::vector<GpuConfig> configs;
};

/** The serving trace: each zoo model's layer batch, replicated. */
std::vector<KernelRequest>
servingTrace(int replicate)
{
    std::vector<KernelRequest> requests;
    for (const DnnModel &model : {makeResnet18(), makeBertBase()}) {
        const std::vector<KernelRequest> batch =
            ModelRunner::layerRequests(
                model, ModelMethod::DualSparseImplicit, 1);
        for (int rep = 0; rep < replicate; ++rep)
            requests.insert(requests.end(), batch.begin(),
                            batch.end());
    }
    return requests;
}

Point
runPoint(const DeviceSet &set, PlacementPolicy policy,
         int replicate)
{
    Point p;
    p.devices = set.name;
    p.policy = tokenOf(kPlacementPolicies, policy);
    p.num_devices = static_cast<int>(set.configs.size());

    ClusterOptions opts;
    opts.devices = set.configs;
    opts.policy = policy;
    Cluster cluster(opts);

    std::vector<KernelRequest> requests = servingTrace(replicate);
    p.requests = static_cast<int>(requests.size());

    const double t0 = nowMs();
    std::vector<KernelReport> reports = cluster.runBatch(requests);
    p.wall_ms = nowMs() - t0;

    std::vector<double> device_us(set.configs.size(), 0.0);
    for (const KernelReport &report : reports) {
        device_us[report.device] += report.stats.timeUs();
        p.sum_time_us += report.stats.timeUs();
    }
    p.makespan_us =
        *std::max_element(device_us.begin(), device_us.end());
    p.throughput_rpms = p.requests / (p.makespan_us / 1e3);

    // Determinism contract: every report bitwise equals a serial
    // single-Session run on the placed device's config.
    std::vector<std::unique_ptr<Session>> reference;
    for (const GpuConfig &cfg : set.configs)
        reference.push_back(std::make_unique<Session>(cfg));
    p.bitwise_equal = reports.size() == requests.size();
    for (size_t i = 0; i < reports.size() && p.bitwise_equal; ++i) {
        KernelReport serial =
            reference[reports[i].device]->run(requests[i]);
        p.bitwise_equal = reports[i].stats == serial.stats &&
                          reports[i].backend == serial.backend;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_cluster.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_cluster", &args))
        return 2;

    bench::warmProcessState(GpuConfig::v100());

    const int replicate = args.quick ? 2 : 6;
    std::vector<DeviceSet> sets = {
        {"v100", {GpuConfig::v100()}},
        {"v100x2", {GpuConfig::v100(), GpuConfig::v100()}},
        {"v100+future", {GpuConfig::v100(), GpuConfig::futureGpu()}},
    };
    if (!args.quick) {
        sets.push_back({"v100x4",
                        {GpuConfig::v100(), GpuConfig::v100(),
                         GpuConfig::v100(), GpuConfig::v100()}});
        sets.push_back(
            {"v100+a100+future",
             {GpuConfig::v100(), GpuConfig::a100Like(),
              GpuConfig::futureGpu()}});
    }

    std::vector<Point> points;
    std::printf("%18s %6s %4s %6s | %12s %12s %10s | %8s\n",
                "devices", "policy", "dev", "reqs", "makespan us",
                "sum us", "req/ms", "wall ms");
    for (const DeviceSet &set : sets) {
        for (PlacementPolicy policy :
             {PlacementPolicy::CostModel, PlacementPolicy::RoundRobin,
              PlacementPolicy::StaticShard}) {
            // Single-device placement is trivial; one policy covers it.
            if (set.configs.size() == 1 &&
                policy != PlacementPolicy::CostModel)
                continue;
            Point p = runPoint(set, policy, replicate);
            points.push_back(p);
            std::printf(
                "%18s %6s %4d %6d | %12.1f %12.1f %10.1f | %8.1f%s\n",
                p.devices.c_str(), p.policy.c_str(), p.num_devices,
                p.requests, p.makespan_us, p.sum_time_us,
                p.throughput_rpms, p.wall_ms,
                p.bitwise_equal ? "" : "  [MISMATCH]");
            if (!p.bitwise_equal) {
                std::fprintf(stderr,
                             "FATAL: cluster reports differ from the "
                             "serial single-Session reference\n");
                std::exit(1);
            }
        }
    }

    // The placement-quality headline: on the heterogeneous mix the
    // cost model must beat round-robin throughput.
    for (const char *devices : {"v100+future", "v100+a100+future"}) {
        double cost = 0.0, rr = 0.0;
        for (const Point &p : points) {
            if (p.devices != devices)
                continue;
            if (p.policy == std::string("cost"))
                cost = p.makespan_us;
            else if (p.policy == std::string("rr"))
                rr = p.makespan_us;
        }
        if (cost > 0.0 && rr > 0.0)
            std::printf("\n%s: cost-model makespan %.1f us vs "
                        "round-robin %.1f us -> %.2fx placement "
                        "quality\n",
                        devices, cost, rr, rr / cost);
    }

    bench::BenchJson json("micro_cluster", args);
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .text("devices", p.devices)
            .text("policy", p.policy)
            .integer("num_devices", p.num_devices)
            .integer("requests", p.requests)
            .number("makespan_us", p.makespan_us, 3)
            .number("sum_time_us", p.sum_time_us, 3)
            .number("throughput_rpms", p.throughput_rpms, 2)
            .number("wall_ms", p.wall_ms, 3)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.write();
    return 0;
}
