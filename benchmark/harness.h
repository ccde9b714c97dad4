/**
 * @file
 * Scaffolding shared by the workloads of the repo benchmark
 * (benchmark/dstc_bench): the in-memory span recorder behind --trace,
 * latency statistics, the peak-RSS readout and the record a workload
 * run fills.
 *
 * The benchmark measures every layer from outside: spans wrap calls
 * into the library's public functions, made from the benchmark's own
 * client thread. Nothing here reaches into the library.
 */
#ifndef DSTC_BENCHMARK_HARNESS_H
#define DSTC_BENCHMARK_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/encoding_cache.h"
#include "core/kernel_request.h"

namespace dstc {
namespace bench {

/**
 * Spans kept in memory and written as Chrome trace-event JSON when the
 * run ends. Each span records its name, start, end, its parent (the
 * innermost span open when it began) and a request id shared by every
 * span of one request. Off by default; a disabled recorder costs one
 * branch per span. Single-threaded: only the client thread records.
 */
class Tracer
{
  public:
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Open a span. @p request < 0 inherits the enclosing span's
     *  request id. Returns the span id. */
    int64_t open(const char *name, int64_t request);

    /** Close span @p id, attaching @p args (a JSON object body). */
    void close(int64_t id, std::string args);

    /** Set a named count or gauge (written beside the spans). */
    void counter(const std::string &name, double value,
                 const char *unit);

    /** Run-level fact written into the trace's metadata. */
    void meta(const std::string &key, double value);

    /** Write the trace; false if the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        int64_t parent = -1;
        int64_t request = -1;
        std::string args;
    };

    bool enabled_ = false;
    std::vector<Record> spans_;
    std::vector<int64_t> open_; ///< stack of open span ids
    std::map<std::string, std::pair<double, std::string>> counters_;
    std::map<std::string, double> meta_;
};

/** RAII span over a scope. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, int64_t request = -1)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(name, request) : -1)
    {
    }

    ~Span()
    {
        if (id_ >= 0)
            tracer_.close(id_, std::move(args_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void arg(const char *key, const std::string &value);
    void arg(const char *key, double value);

  private:
    Tracer &tracer_;
    int64_t id_;
    std::string args_;
};

/** Median and tail of a latency sample set. */
struct HostLatency
{
    double p50 = 0.0;
    double tail = 0.0;   ///< value at tail_pct
    int tail_pct = 0;    ///< 90 unless samples are few
    size_t samples = 0;
};

/**
 * Median, and p90 when at least ten samples lie beyond it; with fewer
 * samples the highest whole percentile that keeps ten beyond it, and
 * the maximum when there are ten samples or fewer.
 */
HostLatency summarizeLatency(std::vector<double> samples_ms);

double median(std::vector<double> values);

/** Peak resident set (VmHWM) of this process, in MB (1e6 bytes). */
double peakRssMb();

/** Keep @p value observable, so the optimizer cannot drop the inline
 *  probe that computed it. */
void keep(uint64_t value);

/** One named metric as printed. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct RunResult
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors; ///< failed checks, one line each
    std::map<std::string, Metric> metrics;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
};

/** The modeled reports of one pass (the warm-up), accumulated. */
struct ModeledTotals
{
    KernelStats sum;
    double time_us = 0.0; ///< sum of per-kernel timeUs()
    int64_t kernels = 0;
    int64_t memory_bound = 0;
    int64_t dense_routed = 0; ///< kernels Auto sent to the dense backend

    void add(const KernelReport &report);

    /** Set sim_time_us and sim_speedup_vs_dense, given the summed
     *  dense-backend time of the same requests. */
    void report(RunResult &result, double dense_us) const;

    /** Write the timing.* and core.dense_route_frac counters. */
    void record(Tracer &tracer) const;
};

/** An EncodingCache's counters and footprint at one instant. */
struct CacheSnapshot
{
    EncodingCache::Counters counters;
    size_t entries = 0;
    size_t bytes = 0;

    static CacheSnapshot of(const EncodingCache &cache);
};

/** Write the core.cache_* counters of a window from its end points. */
void recordCache(Tracer &tracer, const CacheSnapshot &start,
                 const CacheSnapshot &end);

} // namespace bench
} // namespace dstc

#endif // DSTC_BENCHMARK_HARNESS_H
