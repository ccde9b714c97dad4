#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dstc {
namespace bench {

namespace {

double
nowUs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Round-tripping decimal form of @p v. */
std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendArg(std::string *args, const char *key, const std::string &json)
{
    if (!args->empty())
        *args += ", ";
    *args += quoted(key) + ": " + json;
}

} // namespace

int64_t
Tracer::open(const char *name, int64_t request)
{
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : open_.back();
    r.request = request >= 0 || open_.empty()
                    ? request
                    : spans_[open_.back()].request;
    r.start_us = nowUs();
    spans_.push_back(std::move(r));
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::close(int64_t id, std::string args)
{
    Record &r = spans_[id];
    r.end_us = nowUs();
    r.args = std::move(args);
    // Spans are scoped, so the closing span is the innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::counter(const std::string &name, double value, const char *unit)
{
    counters_[name] = {value, unit};
}

void
Tracer::meta(const std::string &key, double value)
{
    meta_[key] = value;
}

bool
Tracer::write(const std::string &path) const
{
    std::ostringstream out;
    out << "{\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        out << (first ? "" : ",\n");
        first = false;
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        sep();
        out << "{\"name\": " << quoted(r.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << number(r.start_us)
            << ", \"dur\": " << number(r.end_us - r.start_us)
            << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << r.parent
            << ", \"request\": " << r.request;
        if (!r.args.empty())
            out << ", " << r.args;
        out << "}}";
    }
    const double end_us = nowUs();
    for (const auto &[name, value] : counters_) {
        sep();
        out << "{\"name\": " << quoted(name)
            << ", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << number(end_us) << ", \"args\": {\"value\": "
            << number(value.first) << "}}";
    }
    out << "\n],\n\"otherData\": {\"counters\": {";
    first = true;
    for (const auto &[name, value] : counters_) {
        sep();
        out << quoted(name) << ": {\"value\": " << number(value.first)
            << ", \"unit\": " << quoted(value.second) << "}";
    }
    out << "},\n\"meta\": {";
    first = true;
    for (const auto &[key, value] : meta_) {
        sep();
        out << quoted(key) << ": " << number(value);
    }
    out << "}}}\n";
    std::ofstream file(path);
    file << out.str();
    return static_cast<bool>(file);
}

void
Span::arg(const char *key, const std::string &value)
{
    appendArg(&args_, key, quoted(value));
}

void
Span::arg(const char *key, double value)
{
    appendArg(&args_, key, number(value));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

HostLatency
summarizeLatency(std::vector<double> samples_ms)
{
    HostLatency s;
    s.samples = samples_ms.size();
    if (samples_ms.empty())
        return s;
    s.p50 = median(samples_ms);
    std::sort(samples_ms.begin(), samples_ms.end());
    if (samples_ms.size() <= 10) {
        // No percentile has ten samples beyond it: report the max.
        s.tail_pct = 100;
        s.tail = samples_ms.back();
        return s;
    }
    const double n = static_cast<double>(samples_ms.size());
    // Highest whole percentile p with at least ten samples above the
    // nearest-rank p-th value: rank = ceil(p/100 * n) <= n - 10.
    s.tail_pct = 90;
    while (s.tail_pct > 0 &&
           std::ceil(s.tail_pct / 100.0 * n) > n - 10.0)
        --s.tail_pct;
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(s.tail_pct / 100.0 * n)));
    s.tail = samples_ms[rank - 1];
    return s;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
    return 0.0;
}

namespace {

volatile uint64_t kept_value;

double
fraction(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

} // namespace

void
keep(uint64_t value)
{
    kept_value = value;
}

void
ModeledTotals::add(const KernelReport &report)
{
    sum += report.stats;
    time_us += report.timeUs();
    ++kernels;
    if (report.stats.bound == Bound::Memory)
        ++memory_bound;
    if (report.method == Method::Dense)
        ++dense_routed;
}

void
ModeledTotals::report(RunResult &result, double dense_us) const
{
    result.set("sim_time_us", time_us, "us");
    result.set("sim_speedup_vs_dense", fraction(dense_us, time_us), "x");
}

void
ModeledTotals::record(Tracer &tracer) const
{
    const InstructionMix &mix = sum.mix;
    tracer.counter("timing.compute_us", sum.compute_us, "us");
    tracer.counter("timing.memory_us", sum.memory_us, "us");
    tracer.counter("timing.dram_mb", sum.dram_bytes / 1e6, "MB");
    tracer.counter("timing.merge_cycles",
                   static_cast<double>(sum.merge_cycles), "cycles");
    tracer.counter(
        "timing.warp_tile_skip_frac",
        fraction(static_cast<double>(sum.warp_tiles_skipped),
                 static_cast<double>(sum.warp_tiles +
                                     sum.warp_tiles_skipped)),
        "fraction");
    tracer.counter(
        "timing.ohmma_useful_frac",
        fraction(static_cast<double>(mix.ohmma_issued),
                 static_cast<double>(mix.ohmma_issued +
                                     mix.ohmma_skipped)),
        "fraction");
    tracer.counter("timing.mem_bound_frac",
                   fraction(static_cast<double>(memory_bound),
                            static_cast<double>(kernels)),
                   "fraction");
    tracer.counter("core.dense_route_frac",
                   fraction(static_cast<double>(dense_routed),
                            static_cast<double>(kernels)),
                   "fraction");
}

CacheSnapshot
CacheSnapshot::of(const EncodingCache &cache)
{
    return {cache.counters(), cache.entries(), cache.totalBytes()};
}

void
recordCache(Tracer &tracer, const CacheSnapshot &start,
            const CacheSnapshot &end)
{
    const double hits =
        static_cast<double>(end.counters.hits - start.counters.hits);
    const double misses =
        static_cast<double>(end.counters.misses - start.counters.misses);
    tracer.counter("core.cache_hit_frac", fraction(hits, hits + misses),
                   "fraction");
    tracer.counter("core.cache_mb", static_cast<double>(end.bytes) / 1e6,
                   "MB");
    tracer.counter("core.cache_entries", static_cast<double>(end.entries),
                   "count");
    tracer.counter("core.cache_evictions",
                   static_cast<double>(end.counters.evictions -
                                       start.counters.evictions),
                   "count");
}

} // namespace bench
} // namespace dstc
