/**
 * @file
 * The polymorphic backend protocol behind the KernelRegistry.
 *
 * A Backend answers KernelRequests for one execution method. The
 * two-phase protocol separates planning from execution:
 *
 *   backend->plan(request, ctx)   // a plan over the request
 *          ->execute()            // stats, plus values if functional
 *
 * plan() itself is cheap: a plan resolves operand encodings (two-level
 * bitmaps, popcount profiles, CSR, im2col lowerings) lazily, through
 * the EncodingCache, so repeated layers reuse their encodings and a
 * losing Auto candidate never pays for an encode its timing does not
 * need. Plans are the unit of Auto dispatch: estimatedTimeUs() lets
 * the registry compare candidate backends before committing to one,
 * and it reads the same stats the plan then executes with.
 */
#ifndef DSTC_CORE_BACKEND_H
#define DSTC_CORE_BACKEND_H

#include <cstdint>
#include <memory>
#include <optional>

#include "core/encoding_cache.h"
#include "core/kernel_request.h"
#include "timing/gpu_config.h"

namespace dstc {

class Backend;
class KernelRegistry;
class OperandDigests;

/** Everything a backend needs besides the request itself. */
struct PlanContext
{
    const GpuConfig *cfg = nullptr;
    EncodingCache *cache = nullptr;

    /** Worker partitioning of the word-parallel operand encoders
     *  (ExecutionResources::encode_workers as resolved by the
     *  Session; 0 = shared pool, 1 = serial). Encodings are bitwise
     *  identical for every setting. */
    int encode_workers = 1;

    /**
     * The registry that issued this plan. KernelRegistry::plan sets
     * it and is the only path that plans a request, so every plan
     * receives it. Composer backends (Method::Hybrid) route their
     * per-class sub-requests back through its plan() and assert it
     * is set; primitive backends ignore it.
     */
    const KernelRegistry *registry = nullptr;

    /** The request's operand memo, fresh per KernelRegistry::plan
     *  call and shared by every candidate it plans. Like registry,
     *  set by the registry and asserted by every plan. */
    std::shared_ptr<OperandDigests> digests;
};

/** One operand's memoized pass: its content digest and non-zeros. */
struct OperandDigest
{
    uint64_t digest = 0; ///< CacheKey("operand-bytes").matrix value
    int64_t nnz = 0;     ///< wordNnz of the payload
};

/**
 * Lazily-computed content digests and non-zero counts of a request's
 * concrete operands. KernelRegistry::plan builds one per plan() call
 * and shares it with every candidate through PlanContext, so each
 * operand is read once per plan: one CacheKey::payload pass yields
 * the 64-bit digest folded into every encoding family key (profiles,
 * two-level, narrow, CSR) and the non-zero count the cuSPARSE-like
 * estimates price.
 */
class OperandDigests
{
  public:
    const OperandDigest &
    a(const Matrix<float> &m)
    {
        return memo(m, a_);
    }

    const OperandDigest &
    b(const Matrix<float> &m)
    {
        return memo(m, b_);
    }

  private:
    struct Slot
    {
        const Matrix<float> *src = nullptr;
        OperandDigest value;
    };

    /** Each slot memoizes exactly one matrix: a later call with a
     *  different object would silently reuse the wrong digest, so
     *  the identity is checked, not assumed. */
    static const OperandDigest &
    memo(const Matrix<float> &m, Slot &slot)
    {
        if (!slot.src) {
            slot.src = &m;
            slot.value.digest = CacheKey("operand-bytes")
                                    .matrix(m, &slot.value.nnz)
                                    .value();
        }
        DSTC_ASSERT(slot.src == &m,
                    "OperandDigests slot reused for a different "
                    "matrix");
        return slot.value;
    }

    Slot a_;
    Slot b_;
};

/**
 * A planned kernel. Every plan has one shape: a pure timing hook that
 * yields the plan's one KernelStats, memoized by stats(), and a values
 * hook that computes the output of a functional request. The estimate
 * Auto ranks by, the stats execute() reports and the stats a composer
 * merges are that one memo, so a plan never times itself twice and
 * never runs its kernel just to be ranked.
 *
 * This is the skeleton every backend's plan builds on: it holds the
 * request (copied once), the PlanContext (borrowed pointers: the
 * Session must outlive the plan; the OperandDigests memo it shares
 * with the other candidates of its plan() call), and one cache-hit
 * accumulator that resolve() feeds and execute() reports.
 */
class ExecutionPlan
{
  public:
    ExecutionPlan(const Backend &backend, const KernelRequest &request,
                  const PlanContext &ctx);
    virtual ~ExecutionPlan() = default;

    /**
     * Predicted kernel time, used by Method::Auto to rank candidate
     * backends and by cluster placement to price a request: the time
     * of stats(), except where a plan overrides estimate().
     */
    double
    estimatedTimeUs()
    {
        if (!estimated_)
            estimated_ = estimate();
        return *estimated_;
    }

    /** The plan's one KernelStats (memoized; computes no values). */
    const KernelStats &
    stats()
    {
        if (!stats_)
            stats_ = timing();
        return *stats_;
    }

    /**
     * Execute the plan: stats() plus, for a functional request, the
     * output values. Idempotent: the values are computed once, and
     * repeated calls return the same report. Values come before
     * stats(), so a plan executed without an estimate may time the
     * encodings its values resolved.
     */
    KernelReport
    execute()
    {
        if (!executing_) {
            executing_ = true;
            if (wantsValues())
                values(values_);
        }
        KernelReport r = values_;
        r.stats = stats();
        r.method = method_;
        r.backend = backend_name_;
        r.tag = req_.tag;
        r.encode_cache_hit = cache_hit_;
        if (estimated_)
            r.planned_us = *estimated_;
        return r;
    }

    Method method() const { return method_; }

  protected:
    /** The plan's timing model over its (lazily resolved) operands. */
    virtual KernelStats timing() = 0;

    /** Fill @p report's d (GEMM, SpMM) or output (conv) and nothing
     *  else. Called at most once, and only for a request that wants
     *  values. */
    virtual void values(KernelReport &report) = 0;

    /** The ranking number. Overridden only by the two plans whose
     *  ranking deliberately differs from their stats (each documents
     *  why). */
    virtual double estimate() { return stats().timeUs(); }

    /** Whether execute() has been called. A timing hook that runs
     *  after that point (no estimate or stats() call came first) may
     *  time operand encodings that execution resolves anyway. */
    bool executing() const { return executing_; }

    /**
     * Resolve one operand encoding through a gemm_operands.h
     * resolver — resolver(req, ctx, digests, &hit, args...) — against
     * this plan's request, context and digests. A cache hit marks the
     * report's encode_cache_hit.
     */
    template <typename Resolver, typename... Args>
    auto
    resolve(Resolver resolver, Args... args)
    {
        bool hit = false;
        auto resolved = resolver(req_, ctx_, digests(), &hit, args...);
        cache_hit_ = cache_hit_ || hit;
        return resolved;
    }

    OperandDigests &digests() const { return *ctx_.digests; }

    const GpuConfig &cfg() const { return *ctx_.cfg; }

    const KernelRequest req_;
    const PlanContext ctx_;

  private:
    /** A functional request computes values: conv always, GEMM and
     *  SpMM unless gemm_options.functional is off. */
    bool
    wantsValues() const
    {
        return req_.functional() &&
               (req_.kind == KernelRequest::Kind::Conv ||
                req_.gemm_options.functional);
    }

    const char *backend_name_;
    Method method_;
    bool cache_hit_ = false;
    bool executing_ = false;
    std::optional<double> estimated_;
    std::optional<KernelStats> stats_;
    KernelReport values_; ///< d / output only
};

/** One execution method, as registered with the KernelRegistry. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** The concrete method this backend implements (never Auto). */
    virtual Method method() const = 0;

    /** Stable backend name ("dual-sparse", "dense-cutlass", ...). */
    virtual const char *name() const = 0;

    /** Whether this backend can execute @p request at all, given
     *  that its operand forms pair (operandsValid, which the
     *  registry checks once for every backend). */
    virtual bool supports(const KernelRequest &request) const = 0;

    /**
     * Whether this backend answers @p request without assuming a
     * lossy transformation of the operands. The structurally
     * pruning baselines (vector-wise 75%, 2:4) drop weights to fit
     * their format — for GEMM that changes the numerics, and the
     * explicit Single Sparse conv strategy's timing presumes the
     * forced 75% prune. Auto only dispatches among exact backends,
     * so "fastest" never silently means "lossier".
     */
    virtual bool
    exact(const KernelRequest &request) const
    {
        (void)request;
        return true;
    }

    /** Resolve operand encodings and produce an executable plan.
     *  Preconditions: supports(request), and ctx.registry is the
     *  registry planning it (KernelRegistry::plan sets it). */
    virtual std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &request, const PlanContext &ctx) const = 0;
};

// The five evaluated backends (Fig. 21/22).
std::unique_ptr<Backend> makeDualSparseBackend();
std::unique_ptr<Backend> makeDenseBackend();
std::unique_ptr<Backend> makeZhuSparseBackend();
std::unique_ptr<Backend> makeAmpereSparseBackend();
std::unique_ptr<Backend> makeCusparseLikeBackend();

// The density-partitioned composer over them (src/core/hybrid.h).
std::unique_ptr<Backend> makeHybridBackend();

inline ExecutionPlan::ExecutionPlan(const Backend &backend,
                                    const KernelRequest &request,
                                    const PlanContext &ctx)
    : req_(request), ctx_(ctx), backend_name_(backend.name()),
      method_(backend.method())
{
    DSTC_ASSERT(ctx.digests, "plans are issued by KernelRegistry::plan");
}

} // namespace dstc

#endif // DSTC_CORE_BACKEND_H
