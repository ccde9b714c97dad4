/**
 * @file
 * dstc_bench — one workload run of the repo benchmark.
 *
 *   dstc_bench --workload NAME --seed N [--seconds S] [--trace DIR]
 *              [--quick] [--corpus DIR]
 *
 * Sets the workload up several times (setup_s is the median), runs the
 * timed window, then verifies outputs and times the dense reference,
 * and prints one JSON line: the end-to-end metrics, the attempted and
 * failed counts and every failed check. --seconds sizes the window in
 * whole passes of the workload's nominal pass time on the reference
 * host, so a run does a fixed amount of work per seed.
 *
 * With --trace DIR an untraced window is followed by a traced one of
 * half as many passes — spans around every request and off-clock
 * probes of the lower layers — and DIR/trace.json is written (Chrome
 * trace-event format). The end-to-end metrics still come from the
 * untraced window; benchmark/trace_summary.py turns the trace into
 * per-layer metrics.
 * benchmark/run.py builds and drives this binary.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "harness.h"
#include "workload.h"

using namespace dstc;
using namespace dstc::bench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

/** Round-tripping decimal form of @p v. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: dstc_bench --workload "
                 "bert_gemm|resnet_conv|graph_spmm|serve_zoo --seed N "
                 "[--seconds S] [--trace DIR] [--quick] "
                 "[--corpus DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_dir;
    RunConfig config;
    double seconds = 10.0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && has_value) {
            workload = argv[++i];
        } else if (!std::strcmp(argv[i], "--seed") && has_value) {
            char *end = nullptr;
            config.seed = std::strtoull(argv[++i], &end, 10);
            if (*argv[i] == '\0' || *end != '\0')
                return usage();
            have_seed = true;
        } else if (!std::strcmp(argv[i], "--seconds") && has_value) {
            char *end = nullptr;
            seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(seconds > 0.0))
                return usage();
        } else if (!std::strcmp(argv[i], "--trace") && has_value) {
            trace_dir = argv[++i];
        } else if (!std::strcmp(argv[i], "--corpus") && has_value) {
            config.corpus_dir = argv[++i];
        } else if (!std::strcmp(argv[i], "--quick")) {
            config.quick = true;
        } else {
            return usage();
        }
    }
    std::unique_ptr<Workload> w;
    if (workload == "bert_gemm")
        w = makeBertGemm(config);
    else if (workload == "resnet_conv")
        w = makeResnetConv(config);
    else if (workload == "graph_spmm")
        w = makeGraphSpmm(config);
    else if (workload == "serve_zoo")
        w = makeServeZoo(config);
    if (!w || !have_seed)
        return usage();

    try {
        Tracer tracer;
        tracer.setEnabled(!trace_dir.empty());
        std::vector<double> setup_s;
        for (int r = 0; r < (config.quick ? 1 : kSetups); ++r) {
            const double t0 = nowMs();
            w->setUp(tracer);
            setup_s.push_back((nowMs() - t0) / 1e3);
        }
        const int passes =
            config.quick
                ? 1
                : std::max(1, static_cast<int>(std::lround(
                                  seconds / w->nominalPassSeconds())));

        const bool traced = tracer.enabled();
        tracer.setEnabled(false);
        const WindowResult window = w->runWindow(passes, tracer);
        const HostLatency latency = summarizeLatency(window.latency_ms);
        const double rss_mb = peakRssMb();
        if (traced) {
            // Half the passes: the probes after each request cost
            // several times the request itself.
            tracer.setEnabled(true);
            const WindowResult traced_window =
                w->runWindow((passes + 1) / 2, tracer);
            const double traced_p50 =
                summarizeLatency(traced_window.latency_ms).p50;
            tracer.meta("untraced_p50_ms", latency.p50);
            tracer.meta("traced_p50_ms", traced_p50);
            tracer.setEnabled(false);
        }

        RunResult result;
        w->finish(result, tracer);
        result.set("setup_s", median(setup_s), "s");
        result.set("throughput_rps",
                   window.busy_s > 0.0 ? window.work / window.busy_s : 0.0,
                   "req/s");
        result.set("latency_p50_ms", latency.p50, "ms");
        result.set("peak_rss_mb", rss_mb, "MB");

        std::string trace_path;
        if (traced) {
            std::filesystem::create_directories(trace_dir);
            trace_path = trace_dir + "/trace.json";
            if (!tracer.write(trace_path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
                return 1;
            }
        }

        std::string out = "{\"workload\": " + jsonString(workload) +
                          ", \"seed\": " + std::to_string(config.seed) +
                          ", \"passes\": " + std::to_string(passes) +
                          ", \"latency_samples\": " +
                          std::to_string(latency.samples) +
                          ", \"latency_tail_pct\": " +
                          std::to_string(latency.tail_pct) +
                          ", \"latency_tail_ms\": " +
                          jsonNumber(latency.tail) +
                          ", \"attempted\": " +
                          std::to_string(result.attempted) +
                          ", \"failed\": " +
                          std::to_string(result.failed) +
                          ", \"errors\": [";
        for (size_t i = 0; i < result.errors.size(); ++i)
            out += (i ? ", " : "") + jsonString(result.errors[i]);
        out += "], \"metrics\": {";
        bool first = true;
        for (const auto &[name, metric] : result.metrics) {
            out += (first ? "" : ", ") + jsonString(name) +
                   ": {\"value\": " + jsonNumber(metric.value) +
                   ", \"unit\": " + jsonString(metric.unit) + "}";
            first = false;
        }
        out += "}, \"trace\": " +
               (traced ? jsonString(trace_path) : std::string("null")) +
               "}";
        std::printf("%s\n", out.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
