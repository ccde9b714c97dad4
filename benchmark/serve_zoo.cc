/**
 * @file
 * serve_zoo: a timing-only ServingEngine run over the 39
 * layerRequests of all five zoo models under Auto, served by a
 * {v100, a100Like, futureGpu} cluster with the deadline policy and
 * Poisson arrivals. Each pass climbs a fixed ladder of offered rates,
 * with a new engine per rung; after each rung it sweeps the pool
 * through Session::run on a warm V100 Session (the per-dispatch host
 * cost, timed per call).
 *
 * Chosen because it carries no operand values at all: host time goes
 * to profile synthesis, estimates, placement and the event loop, so a
 * change to kernel values must leave this workload unchanged.
 */
#include <algorithm>
#include <exception>

#include "bench_util.h"
#include "model/runner.h"
#include "serve/serving.h"
#include "workload.h"

namespace dstc {
namespace bench {

namespace {

/** Simulated milliseconds of arrivals per rung. */
constexpr double kRungMs = 1.0;

/** The rung whose p99 is reported and whose placements are replayed. */
constexpr double kTailRate = 550.0;

/** Pool sweeps after each rung: the latency samples spread over the
 *  whole window, so host load that comes and goes during a run moves
 *  them as little as it moves the rungs. */
constexpr int kSweepsPerRung = 2;

class ServeZoo : public Workload
{
  public:
    explicit ServeZoo(RunConfig config) : config_(config) {}

    double nominalPassSeconds() const override { return 12.0; }

    void
    setUp(Tracer &tracer) override
    {
        {
            Span span(tracer, "model.layer_requests");
            pool_.clear();
            for (const DnnModel &model : allModels()) {
                const std::vector<KernelRequest> layers =
                    ModelRunner::layerRequests(model, ModelMethod::Auto,
                                               config_.seed);
                pool_.insert(pool_.end(), layers.begin(), layers.end());
            }
        }
        warmProcessState(GpuConfig::v100());
        session_ = std::make_unique<Session>(benchSessionOptions());
        modeled_ = {};
        // The warm-up pass: the pool once through a fresh Session
        // (profile synthesis included), which is also the modeled
        // pass.
        Span span(tracer, "serve.pool_run_cold");
        for (const KernelRequest &request : pool_)
            modeled_.add(session_->run(request));
    }

    WindowResult
    runWindow(int passes, Tracer &tracer) override
    {
        WindowResult w;
        const bool traced = tracer.enabled();
        rungs_.clear();
        tail_engine_.reset();
        window_start_ = CacheSnapshot::of(session_->encodingCache());
        for (int p = 0; p < passes; ++p) {
            for (double rate : ladder()) {
                const double t0 = nowMs();
                auto engine = std::make_unique<ServingEngine>(
                    options(rate), pool_);
                ServingResult result;
                {
                    // Capacity estimates: every pool entry on every
                    // device, cold in the new engine's cache.
                    Span span(tracer, "serve.engine_build");
                    engine->estimatedCapacityRpms();
                }
                {
                    Span span(tracer, "serve.run");
                    result = engine->run();
                    span.arg("offered",
                             static_cast<double>(result.stats.offered));
                }
                w.busy_s += (nowMs() - t0) / 1e3;
                w.work += static_cast<double>(result.stats.offered);
                account(rate, result.stats);
                if (p == 0) {
                    rungs_.push_back({rate, result.stats});
                    if (rate == kTailRate) {
                        tail_engine_ = std::move(engine);
                        tail_result_ = std::move(result);
                    }
                }
                for (int sweep = 0; sweep < kSweepsPerRung; ++sweep)
                    for (const KernelRequest &request : pool_) {
                        double ms = 0.0;
                        if (issue(request, traced, tracer, &ms))
                            w.latency_ms.push_back(ms);
                    }
            }
            if (traced) {
                Span warm(tracer, "serve.pool_run_warm");
                for (const KernelRequest &request : pool_)
                    session_->run(request);
            }
        }
        window_end_ = CacheSnapshot::of(session_->encodingCache());
        return w;
    }

    void
    finish(RunResult &result, Tracer &tracer) override
    {
        if (tail_engine_ &&
            !tail_engine_->replayMatchesSerial(tail_result_)) {
            ++failed_;
            result.errors.push_back(
                "rung 550: reports differ from the serial replay");
        }
        result.attempted = attempted_;
        result.failed = failed_;
        result.errors.insert(result.errors.end(), errors_.begin(),
                             errors_.end());

        double dense_us = 0.0;
        double candidates = 0.0;
        for (const KernelRequest &request : pool_) {
            dense_us += session_
                            ->run(KernelRequest(request).withMethod(
                                Method::Dense))
                            .timeUs();
            candidates += static_cast<double>(
                session_->registry().candidates(request).size());
        }
        modeled_.report(result, dense_us);
        modeled_.record(tracer);
        recordCache(tracer, window_start_, window_end_);
        tracer.counter("core.auto_candidates",
                       candidates / static_cast<double>(pool_.size()),
                       "count");

        auto frac = [](int64_t part, int64_t whole) {
            return whole > 0 ? static_cast<double>(part) /
                                   static_cast<double>(whole)
                             : 0.0;
        };
        tracer.counter("serve.microbatch_frac",
                       frac(total_.microbatched, total_.completed),
                       "fraction");
        tracer.counter("serve.steal_frac",
                       frac(total_.steals, total_.completed), "fraction");
        tracer.counter("serve.drop_frac",
                       frac(total_.dropped, total_.offered), "fraction");
        // The modeled scorecard of the ladder: the p99 at the tail
        // rung, goodput at the top rung, and the highest rung served
        // within the SLO with nothing refused.
        double max_rate = 0.0;
        for (const Rung &rung : rungs_) {
            const ServingStats &s = rung.stats;
            if (rung.rate == kTailRate)
                tracer.counter("serve.p99_us", s.latency.p99_us, "us");
            if (s.slo_attainment >= 0.99 && s.rejected == 0 &&
                s.shed == 0 && s.dropped == 0)
                max_rate = std::max(max_rate, rung.rate);
        }
        if (!rungs_.empty())
            tracer.counter("serve.goodput_rpms",
                           rungs_.back().stats.goodput_rpms, "req/ms");
        tracer.counter("serve.max_rate_rpms", max_rate, "req/ms");
    }

  private:
    struct Rung
    {
        double rate = 0.0;
        ServingStats stats;
    };

    std::vector<double>
    ladder() const
    {
        if (config_.quick)
            return {kTailRate};
        return {250.0, 400.0, kTailRate, 700.0, 850.0, 1100.0};
    }

    ServingOptions
    options(double rate) const
    {
        ServingOptions o;
        o.devices = {GpuConfig::v100(), GpuConfig::a100Like(),
                     GpuConfig::futureGpu()};
        o.policy = ServePolicy::Deadline;
        o.arrivals.pattern = TrafficPattern::Poisson;
        o.arrivals.rate_rpms = rate;
        o.arrivals.duration_ms = kRungMs;
        o.arrivals.seed = config_.seed;
        return o;
    }

    /** Check a rung's conservation invariant and add it to the window
     *  totals. */
    void
    account(double rate, const ServingStats &s)
    {
        ++attempted_;
        if (s.completed + s.shed + s.dropped + s.faults.lost !=
            s.admitted) {
            ++failed_;
            errors_.push_back("rung " +
                              std::to_string(static_cast<int>(rate)) +
                              ": completed+shed+dropped+lost != "
                              "admitted");
        }
        total_.offered += s.offered;
        total_.completed += s.completed;
        total_.dropped += s.dropped;
        total_.steals += s.steals;
        total_.microbatched += s.microbatched;
    }

    bool
    issue(const KernelRequest &request, bool traced, Tracer &tracer,
          double *ms)
    {
        ++attempted_;
        const double t0 = nowMs();
        try {
            if (!traced) {
                session_->run(request);
            } else {
                Span span(tracer, "bench.request", attempted_);
                span.arg("layer", request.tag);
                std::unique_ptr<ExecutionPlan> plan;
                {
                    Span plan_span(tracer, "core.plan");
                    plan = session_->plan(request);
                }
                Span exec(tracer, "core.execute");
                exec.arg("backend", plan->execute().backend);
            }
        } catch (const std::exception &e) {
            ++failed_;
            errors_.push_back(std::string("pool request threw: ") +
                              e.what());
            return false;
        }
        *ms = nowMs() - t0;
        return true;
    }

    RunConfig config_;
    std::vector<KernelRequest> pool_;
    std::unique_ptr<Session> session_;
    ModeledTotals modeled_;
    std::vector<Rung> rungs_; ///< first pass, in ladder order
    std::unique_ptr<ServingEngine> tail_engine_;
    ServingResult tail_result_;
    ServingStats total_; ///< summed over every rung of the window
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<std::string> errors_;
    CacheSnapshot window_start_;
    CacheSnapshot window_end_;
};

} // namespace

std::unique_ptr<Workload>
makeServeZoo(const RunConfig &config)
{
    return std::make_unique<ServeZoo>(config);
}

} // namespace bench
} // namespace dstc
