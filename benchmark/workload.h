/**
 * @file
 * The workloads of the repo benchmark and the closed-loop client they
 * share.
 *
 * One client in one process issues every request: it freshens one
 * operand element (off the clock), calls Session::run, and times the
 * call. The library runs at its defaults — a V100 Session, serial
 * encode — except for one compute worker (benchSessionOptions), and
 * sees only the generated inputs. Set-up builds the operands from the
 * seed, warms process state and runs one warm-up pass; the timed
 * window follows. Verification and the dense-reference timing run
 * after the window and count toward neither.
 */
#ifndef DSTC_BENCHMARK_WORKLOAD_H
#define DSTC_BENCHMARK_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "harness.h"

namespace dstc {
namespace bench {

/** Settings of one run, shared by every workload. */
struct RunConfig
{
    uint64_t seed = 1;
    bool quick = false;
    std::string corpus_dir = "corpus";
};

/**
 * The benchmark's Session: the V100 model with one compute worker, so
 * every kernel runs on the client thread. A shared host gives a
 * process little more than one core; more threads than that time
 * the scheduler rather than the library.
 */
inline SessionOptions
benchSessionOptions()
{
    SessionOptions options;
    options.resources.compute_workers = 1;
    return options;
}

/** What the timed window measured. */
struct WindowResult
{
    std::vector<double> latency_ms; ///< one sample per timed call
    double work = 0.0;              ///< requests (or simulated requests)
    double busy_s = 0.0;            ///< host seconds the work took
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Host seconds one pass takes on the reference host (4 cores);
     *  --seconds divides by it to size the window. */
    virtual double nominalPassSeconds() const = 0;

    /** Build operands and fresh library state, then one warm-up
     *  pass. Called several times; the last set-up is measured. */
    virtual void setUp(Tracer &tracer) = 0;

    /** Run @p passes timed passes; with the tracer on, each request
     *  is traced and followed by off-clock layer probes. */
    virtual WindowResult runWindow(int passes, Tracer &tracer) = 0;

    /** Verify kept outputs, time the dense reference and record the
     *  modeled and counter metrics. */
    virtual void finish(RunResult &result, Tracer &tracer) = 0;
};

/**
 * Base of the three functional workloads: a fixed list of requests
 * per pass, each over concrete operands, one element of which the
 * client freshens before the request's clock starts so every request
 * carries new content.
 */
class RequestWorkload : public Workload
{
  public:
    explicit RequestWorkload(RunConfig config) : config_(config) {}

    void setUp(Tracer &tracer) override;
    WindowResult runWindow(int passes, Tracer &tracer) override;
    void finish(RunResult &result, Tracer &tracer) override;

  protected:
    struct Slot
    {
        std::string name;
        KernelRequest request; ///< points at subclass-owned operands
        float *fresh = nullptr; ///< element freshened per request
    };

    /** A request whose output is verified after the window. */
    struct Kept
    {
        size_t slot = 0;
        float value = 0.0f; ///< the fresh element's value
        KernelReport report;
    };

    /** Generate the operands from config_.seed and fill slots_. */
    virtual void build(Tracer &tracer) = 0;

    /** Check one kept output; false (with a reason) on mismatch. */
    virtual bool verify(const Kept &kept, std::string *why) = 0;

    /** Off-clock calls into the lower layers on the request's
     *  operands, each under its own span. Returns the bytes of the
     *  operand encodings it built. */
    virtual double probe(const Slot &slot, const KernelReport &report,
                         Tracer &tracer) = 0;

    /** The dense-backend twin of @p slot's request, timing only. */
    virtual KernelRequest denseTwin(const Slot &slot) const = 0;

    RunConfig config_;
    std::unique_ptr<Session> session_;
    std::vector<Slot> slots_;

  private:
    /** Freshen the slot's element and run its request. Counts the
     *  attempt; a request that threw or returned no output fails. */
    bool issue(size_t slot, bool traced, Tracer &tracer, Kept *out,
               double *ms);

    std::vector<Kept> kept_;
    ModeledTotals modeled_; ///< over the last warm-up pass
    uint64_t issued_ = 0;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<double> encoded_bytes_; ///< per probed request
    CacheSnapshot window_start_;
    CacheSnapshot window_end_;
};

std::unique_ptr<Workload> makeBertGemm(const RunConfig &config);
std::unique_ptr<Workload> makeResnetConv(const RunConfig &config);
std::unique_ptr<Workload> makeGraphSpmm(const RunConfig &config);
std::unique_ptr<Workload> makeServeZoo(const RunConfig &config);

} // namespace bench
} // namespace dstc

#endif // DSTC_BENCHMARK_WORKLOAD_H
