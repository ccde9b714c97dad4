/**
 * @file
 * The polymorphic backend protocol behind the KernelRegistry.
 *
 * A Backend answers KernelRequests for one execution method. The
 * two-phase protocol separates operand encoding from execution:
 *
 *   backend->plan(request, ctx)   // resolve/encode operands
 *          ->execute()            // run, yielding a KernelReport
 *
 * plan() is where two-level bitmap construction, profile synthesis
 * and im2col lowering parameters are resolved — through the
 * EncodingCache, so repeated layers reuse their encodings. plans are
 * also the unit of Auto dispatch: estimatedTimeUs() lets the registry
 * compare candidate backends before committing to one.
 */
#ifndef DSTC_CORE_BACKEND_H
#define DSTC_CORE_BACKEND_H

#include <memory>
#include <optional>

#include "core/encoding_cache.h"
#include "core/kernel_request.h"
#include "timing/gpu_config.h"

namespace dstc {

class KernelRegistry;

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
     * The registry that issued this plan (set by
     * KernelRegistry::plan). Composer backends — Method::Hybrid —
     * route per-class sub-requests back through it; primitive
     * backends ignore it. Null when a backend is planned directly,
     * which primitive backends must tolerate.
     */
    const KernelRegistry *registry = nullptr;
};

/**
 * A planned kernel: operands resolved/encoded, ready to execute.
 * Execution is memoized — execute() and estimatedTimeUs() share one
 * underlying run, so Auto dispatch never pays twice.
 */
class ExecutionPlan
{
  public:
    ExecutionPlan(const char *backend_name, Method method,
                  std::string tag)
        : backend_name_(backend_name), method_(method),
          tag_(std::move(tag))
    {
    }
    virtual ~ExecutionPlan() = default;

    /**
     * Predicted kernel time, used by Method::Auto to rank candidate
     * backends. For the analytic timing paths this *is* the final
     * time; functional plans may answer from the operands' profiles
     * without computing values.
     */
    double
    estimatedTimeUs()
    {
        if (!estimated_)
            estimated_ = estimate();
        return *estimated_;
    }

    /** Execute the plan (idempotent: repeated calls return the same
     *  report). */
    KernelReport
    execute()
    {
        KernelReport r = result();
        r.method = method_;
        r.backend = backend_name_;
        r.tag = tag_;
        r.encode_cache_hit = cache_hit_;
        if (estimated_)
            r.planned_us = *estimated_;
        return r;
    }

    Method method() const { return method_; }
    const char *backendName() const { return backend_name_; }

  protected:
    /** Perform the actual (timing or functional) execution. */
    virtual KernelReport run() = 0;

    /** Default estimate: execute and read the clock. Analytic
     *  backends inherit this; functional plans override it with a
     *  profile-only path. */
    virtual double estimate() { return result().stats.timeUs(); }

    const KernelReport &
    result()
    {
        if (!result_)
            result_ = run();
        return *result_;
    }

    /** Set by subclasses when an encoded operand came from cache. */
    bool cache_hit_ = false;

  private:
    const char *backend_name_;
    Method method_;
    std::string tag_;
    std::optional<double> estimated_;
    std::optional<KernelReport> result_;
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

    /** Whether this backend can execute @p request at all. */
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
     *  Precondition: supports(request). */
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

} // namespace dstc

#endif // DSTC_CORE_BACKEND_H
