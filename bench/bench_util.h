/**
 * @file
 * Scaffolding shared by the seven micro_* benches: wall clock,
 * best-of-N measurement, argument parsing for the common
 * --quick/--reps/--out flags, the warm-up that keeps one-time process
 * state out of the first timed region, and the JSON emitter that
 * writes each bench's output file.
 */
#ifndef DSTC_BENCH_BENCH_UTIL_H
#define DSTC_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "timing/gpu_config.h"
#include "timing/merge_model.h"

namespace dstc {
namespace bench {

inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Shortest span one timed rep covers: a single sub-millisecond call
 *  is one raw sample of scheduler and pool wake-up noise. */
constexpr double kMinRepMs = 1.0;

/**
 * Best-of-@p reps wall time of one @p fn call, in milliseconds. Each
 * rep runs @p fn back to back until at least kMinRepMs has passed
 * and divides by the call count; a call that alone fills the span
 * runs once per rep.
 */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        int calls = 0;
        double elapsed = 0.0;
        const double t0 = nowMs();
        do {
            fn();
            ++calls;
            elapsed = nowMs() - t0;
        } while (elapsed < kMinRepMs);
        best = std::min(best, elapsed / calls);
    }
    return best;
}

/** The common micro-bench command line. */
struct BenchArgs
{
    bool quick = false;
    int reps = 3;
    const char *out = nullptr;
};

/**
 * Parse --quick / --reps N / --out PATH. An explicit --reps wins
 * over the quick default; --reps must be a positive integer (a
 * zero-rep "measurement" would report never-executed runs as green).
 * Returns false (after printing usage) on any invalid argument.
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               BenchArgs *args)
{
    if (args->out == nullptr) {
        std::fprintf(stderr,
                     "error: %s: BenchArgs.out has no default output "
                     "path\n",
                     name);
        return false;
    }
    int reps = 0; // 0 = not given
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            args->quick = true;
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            char *end = nullptr;
            reps = static_cast<int>(std::strtol(argv[++i], &end, 10));
            if (*argv[i] == '\0' || *end != '\0' || reps < 1) {
                std::fprintf(stderr,
                             "error: --reps needs a positive "
                             "integer, got '%s'\n",
                             argv[i]);
                return false;
            }
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            args->out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--reps N] [--out "
                         "PATH]\n",
                         name);
            return false;
        }
    }
    // Best-of-3 even in quick mode: still seconds-scale, and the CI
    // gate compares ratios that a single-shot spike would skew.
    if (reps > 0)
        args->reps = reps;
    else
        args->reps = 3;
    return true;
}

/**
 * Pull one-time process state out of the first timed region: the
 * shared pool's thread spawn and the merge model's process-shared
 * Monte-Carlo memo must not be charged to whichever measurement
 * happens to trigger them first.
 */
inline void
warmProcessState(const GpuConfig &cfg)
{
    sharedThreadPool();
    MergeCostModel(cfg.accum_banks, cfg.operand_collector)
        .tileCycles(8 * cfg.accum_banks, 8);
}

/** The host_note of benches whose only wall-clock axis is the pool. */
inline constexpr const char *kPoolHostNote =
    "wall-clock figures and parallel_scaling ~ 1.0 reflect the bench "
    "container's hardware_concurrency (1 = a single hardware thread, "
    "where the pool cannot scale); simulated *_us fields are "
    "machine-independent";

/**
 * One JSON object of a bench's output, fields in insertion order.
 * Every number carries the printf precision of its field: the
 * precision is part of the format, because check_bench.py matches
 * measured points to the checked-in references by float equality on
 * rounded keys (e.g. sparsity at 2 decimals).
 */
class JsonObject
{
  public:
    JsonObject &
    integer(const char *name, long long value)
    {
        return raw(name, std::to_string(value));
    }

    JsonObject &
    number(const char *name, double value, int decimals)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
        return raw(name, buf);
    }

    JsonObject &
    flag(const char *name, bool value)
    {
        return raw(name, value ? "true" : "false");
    }

    JsonObject &
    text(const char *name, const std::string &value)
    {
        return raw(name, quoted(value));
    }

    std::string
    str() const
    {
        return (body_.empty() ? "{" : body_) + "}";
    }

    /** @p value as a JSON string literal. */
    static std::string
    quoted(const std::string &value)
    {
        std::string out = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
        return out + '"';
    }

  private:
    JsonObject &
    raw(const char *name, const std::string &value)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += quoted(name) + ": " + value;
        return *this;
    }

    std::string body_;
};

/**
 * The output file of one micro bench: its name, the config block
 * (pool threads, hardware_concurrency, reps, quick, host_note) and
 * named arrays of point objects, written to BenchArgs::out.
 */
class BenchJson
{
  public:
    BenchJson(const char *bench, const BenchArgs &args,
              const char *host_note = kPoolHostNote)
        : out_(args.out)
    {
        doc_ = "{\n  \"bench\": " + JsonObject::quoted(bench) +
               ",\n  \"config\": " +
               JsonObject()
                   .integer("threads", sharedThreadPool().numThreads())
                   .integer("hardware_concurrency",
                            std::thread::hardware_concurrency())
                   .integer("reps", args.reps)
                   .flag("quick", args.quick)
                   .text("host_note", host_note)
                   .str();
    }

    /** Append the array @p name: one object per item, by @p toJson. */
    template <typename T, typename Fn>
    void
    array(const char *name, const std::vector<T> &items, Fn &&toJson)
    {
        doc_ += ",\n  " + JsonObject::quoted(name) + ": [";
        for (size_t i = 0; i < items.size(); ++i) {
            doc_ += i ? ",\n    " : "\n    ";
            doc_ += toJson(items[i]).str();
        }
        doc_ += items.empty() ? "]" : "\n  ]";
    }

    /** Write the document to BenchArgs::out; exits 1 on failure. */
    void
    write() const
    {
        std::FILE *f = std::fopen(out_, "w");
        const std::string text = doc_ + "\n}\n";
        const bool ok =
            f && std::fwrite(text.data(), 1, text.size(), f) ==
                     text.size();
        if (!f || std::fclose(f) != 0 || !ok) {
            std::fprintf(stderr, "error: cannot write %s\n", out_);
            std::exit(1);
        }
        std::printf("\nwrote %s\n", out_);
    }

  private:
    const char *out_;
    std::string doc_;
};

} // namespace bench
} // namespace dstc

#endif // DSTC_BENCH_BENCH_UTIL_H
