#include <exception>

#include "bench_util.h"
#include "workload.h"

namespace dstc {
namespace bench {

namespace {

/** Distinct non-zero value for the @p i-th freshened element. */
float
freshValue(uint64_t i)
{
    return 0.5f + static_cast<float>(i & 0xffff) / 65536.0f;
}

} // namespace

void
RequestWorkload::setUp(Tracer &tracer)
{
    session_ = std::make_unique<Session>(benchSessionOptions());
    slots_.clear();
    kept_.clear();
    modeled_ = {};
    issued_ = 0;
    attempted_ = 0;
    failed_ = 0;
    build(tracer);
    warmProcessState(session_->config());
    // The warm-up pass: every operand's first encode, and the modeled
    // stats of one pass. All its outputs are verified.
    for (size_t s = 0; s < slots_.size(); ++s) {
        Kept kept;
        double ms = 0.0;
        if (!issue(s, false, tracer, &kept, &ms))
            continue;
        modeled_.add(kept.report);
        kept_.push_back(std::move(kept));
    }
}

bool
RequestWorkload::issue(size_t s, bool traced, Tracer &tracer, Kept *out,
                       double *ms)
{
    Slot &slot = slots_[s];
    out->slot = s;
    out->value = freshValue(issued_++);
    *slot.fresh = out->value;
    ++attempted_;
    bool ok = true;
    const double t0 = nowMs();
    try {
        if (!traced) {
            out->report = session_->run(slot.request);
        } else {
            Span request(tracer, "bench.request", attempted_);
            request.arg("layer", slot.name);
            std::unique_ptr<ExecutionPlan> plan;
            {
                Span span(tracer, "core.plan");
                plan = session_->plan(slot.request);
            }
            Span span(tracer, "core.execute");
            out->report = plan->execute();
            span.arg("backend", out->report.backend);
        }
    } catch (const std::exception &) {
        ok = false;
    }
    *ms = nowMs() - t0;
    if (!out->report.d && !out->report.output)
        ok = false;
    if (!ok)
        ++failed_;
    return ok;
}

WindowResult
RequestWorkload::runWindow(int passes, Tracer &tracer)
{
    WindowResult w;
    const bool traced = tracer.enabled();
    window_start_ = CacheSnapshot::of(session_->encodingCache());
    double probe_ms = 0.0;
    int64_t index = 0;
    const double t0 = nowMs();
    for (int p = 0; p < passes; ++p) {
        for (size_t s = 0; s < slots_.size(); ++s) {
            Kept kept;
            double ms = 0.0;
            if (!issue(s, traced, tracer, &kept, &ms))
                continue;
            w.latency_ms.push_back(ms);
            w.work += 1.0;
            if (traced) {
                const double p0 = nowMs();
                encoded_bytes_.push_back(
                    probe(slots_[s], kept.report, tracer));
                probe_ms += nowMs() - p0;
            }
            // Every 8th timed output is verified after the window.
            if (index++ % 8 == 0)
                kept_.push_back(std::move(kept));
        }
    }
    w.busy_s = (nowMs() - t0 - probe_ms) / 1e3;
    window_end_ = CacheSnapshot::of(session_->encodingCache());
    return w;
}

void
RequestWorkload::finish(RunResult &result, Tracer &tracer)
{
    for (const Kept &kept : kept_) {
        std::string why;
        if (!verify(kept, &why)) {
            ++failed_;
            result.errors.push_back(slots_[kept.slot].name + ": " + why);
        }
    }
    result.attempted = attempted_;
    result.failed = failed_;

    double dense_us = 0.0;
    double candidates = 0.0;
    for (const Slot &slot : slots_) {
        dense_us += session_->run(denseTwin(slot)).timeUs();
        candidates += static_cast<double>(
            session_->registry().candidates(slot.request).size());
    }
    modeled_.report(result, dense_us);
    modeled_.record(tracer);
    recordCache(tracer, window_start_, window_end_);
    tracer.counter("core.auto_candidates",
                   candidates / static_cast<double>(slots_.size()),
                   "count");
    tracer.counter("sparse.encoded_mb", median(encoded_bytes_) / 1e6,
                   "MB");
}

} // namespace bench
} // namespace dstc
