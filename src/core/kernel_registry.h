/**
 * @file
 * The KernelRegistry: the enumerable set of execution backends and
 * the Method::Auto dispatcher.
 *
 * Backends register as polymorphic Backend implementations; callers
 * can enumerate them, look one up by Method, or hand the registry a
 * KernelRequest and let it choose. Auto dispatch plans every
 * candidate backend and picks the one whose plan-stage estimate
 * (from the operands' SparsityProfile) is fastest — making backend
 * choice a first-class, data-dependent decision instead of a method
 * call baked into the caller.
 */
#ifndef DSTC_CORE_KERNEL_REGISTRY_H
#define DSTC_CORE_KERNEL_REGISTRY_H

#include <memory>
#include <vector>

#include "core/backend.h"

namespace dstc {

/** Registry of the available execution backends. */
class KernelRegistry
{
  public:
    KernelRegistry() = default;
    KernelRegistry(KernelRegistry &&) = default;
    KernelRegistry &operator=(KernelRegistry &&) = default;

    /** The registry with the five evaluated backends (Fig. 21/22). */
    static KernelRegistry withDefaultBackends();

    /** Add a backend. A later registration of the same Method
     *  replaces the earlier one. */
    void registerBackend(std::unique_ptr<Backend> backend);

    const std::vector<std::unique_ptr<Backend>> &
    backends() const
    {
        return backends_;
    }

    /** Backend implementing @p method, or null. */
    const Backend *find(Method method) const;

    /** Whether some backend can execute @p request (Auto included);
     *  false whenever operandsValid(request) is. */
    bool supports(const KernelRequest &request) const;

    /**
     * The backends Auto dispatch would consider for @p request:
     * those that support it, restricted to exact-GEMM backends for
     * GEMM requests (the structurally pruning baselines change the
     * numerics, so "fastest" must not silently mean "lossier").
     */
    std::vector<const Backend *>
    candidates(const KernelRequest &request) const;

    /**
     * Plan @p request; panics unless operandsValid(request) and a
     * pre-encoded pair is tiled at the request's tile_k. Non-Auto
     * methods route to their backend (panics if the backend is
     * missing or rejects the request);
     * Method::Auto plans every candidate and returns the plan with
     * the fastest estimate.
     */
    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &request, const PlanContext &ctx) const;

  private:
    std::vector<std::unique_ptr<Backend>> backends_;
};

} // namespace dstc

#endif // DSTC_CORE_KERNEL_REGISTRY_H
