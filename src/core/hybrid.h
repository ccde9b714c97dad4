/**
 * @file
 * Method::Hybrid: intra-request density-partitioned tile routing.
 *
 * One GEMM or SpMM request rarely has one density: pruned
 * checkpoints mix near-dense tile rows (attention heads that
 * survived pruning) with near-empty ones. A single backend leaves
 * time on the table at one end or the other — the dense Tensor Core
 * pays full rate for empty tiles, the dual-sparse outer product pays
 * bitmap overhead on dense ones. The hybrid composer splits the
 * A-side row groups of a request (32-row warp-tile groups for GEMM,
 * 8-row strips for SpMM) into a low/high density class pair by
 * *exact* per-group density — read straight off the operands'
 * popcount profiles (SparsityProfile::fromEncodedA/B for pre-encoded
 * operands: no decode, no extra value pass) — and routes each class
 * to the backend the cost model ranks fastest for it. Per-class partial
 * results and stats merge into one KernelReport whose output rows
 * are bitwise identical to what the chosen backend produces for that
 * class (output row stripes depend only on the A rows of their own
 * class plus the shared B operand, so slicing cannot change them).
 *
 * The cut is chosen per request: every distinct observed group
 * density is a candidate threshold, each candidate's classes are
 * estimated under each applicable backend through the ordinary
 * plan-stage cost model, and the split with the smallest *merged*
 * time wins — class stats combine under the execution merge rule
 * (max of summed compute and memory plus both launches), so a
 * compute-bound class priced against a memory-bound one gets the
 * same overlap credit the executed report will show. No-split is
 * always a candidate, so a uniform request degenerates to a
 * wholesale delegation with unchanged stats.
 * HybridOptions::threshold pins a manual cut for tests.
 */
#ifndef DSTC_CORE_HYBRID_H
#define DSTC_CORE_HYBRID_H

#include <vector>

#include "core/backend.h"

namespace dstc {

/** One density class of a hybrid split: which A-side tile-row groups
 *  it covers and where the cost model routes it. */
struct HybridClass
{
    /** The primitive method this class executes under. */
    Method method = Method::DualSparse;

    /** Ascending A-side tile-row group indices of the class. */
    std::vector<int> groups;

    /** Plan-stage estimate of the class under @p method (us). */
    double estimated_us = 0.0;
};

/** The chosen partition of one request. */
struct HybridSplit
{
    /**
     * Density cut that produced the classes (groups with density >=
     * threshold form the high class). -1 when the request was not
     * split (a single class).
     */
    double threshold = -1.0;

    /** Non-empty classes, low-density class first. */
    std::vector<HybridClass> classes;

    /**
     * The split's objective value: the classes' estimated stats
     * merged under the execution rule — max of summed compute and
     * memory time plus every class's launch — NOT the sum of the
     * per-class times. A compute-bound class overlaps a memory-bound
     * one, exactly as the executed hybrid's merged KernelStats will
     * report.
     */
    double total_estimated_us = 0.0;

    bool split() const { return classes.size() > 1; }
};

/**
 * Choose the split for @p req (kind == Gemm or Spmm): resolve the
 * per-group densities (32-row tile groups for GEMM, 8-row strips for
 * SpMM), walk the threshold ladder, estimate every (class, candidate
 * backend) pair through the plan-stage cost model and return the
 * min-total partition with its routing. Deterministic — a pure
 * function of the request content — so replays and re-runs partition
 * identically for any worker count or submission path. Every class
 * estimate is planned through ctx.registry, which must be set (the
 * KernelRegistry::plan path sets it; direct callers pass their
 * Session's registry). @p cache_hit (optional) reports whether the
 * operands' profile view came from the EncodingCache.
 */
HybridSplit planHybridSplit(const KernelRequest &req,
                            const PlanContext &ctx,
                            bool *cache_hit = nullptr);

/**
 * Whether @p b already satisfies the Ampere 2:4 structured pattern:
 * at most two non-zeros in every complete four-column quad of every
 * row (the trailing partial quad is exempt, matching prune2of4).
 * Exactly then the ampere backend's forced prune is the identity and
 * its functional output is the unpruned FP16 GEMM — the condition
 * under which the hybrid cost model admits the 2:4 backend as an
 * exact routing target.
 */
bool conformant2of4(const Matrix<float> &b);

} // namespace dstc

#endif // DSTC_CORE_HYBRID_H
