/**
 * @file
 * The Method::Hybrid composer backend (see hybrid.h for the design).
 *
 * Split planning and class execution both route through the
 * registry's ordinary plan() (PlanContext::registry, asserted set) —
 * the composer never re-implements a kernel, it
 * only slices operand views (SparsityProfile::selectGroups,
 * TwoLevelBitmapMatrix::selectTileRows, a row gather for the dense
 * matrix classes) and merges the per-class stats. Because every
 * backend computes an output row stripe from that stripe's A rows
 * plus the full B operand, a class's rows are bitwise identical to
 * the same backend's full-request rows — slicing never changes
 * values, only which backend touches which stripe.
 */
#include "core/hybrid.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/gemm_operands.h"
#include "core/kernel_registry.h"
#include "sparse/narrow_tile.h"

namespace dstc {

namespace {

/** Max cost-model thresholds tried per request (beyond no-split).
 *  Ladders longer than this are subsampled deterministically. */
constexpr int kMaxThresholds = 8;

/**
 * Preference margin for not splitting: a split must beat the best
 * single backend's estimate by at least this factor. Splitting costs
 * an extra kernel launch per class, and the margin also absorbs the
 * small expected-vs-actual gap of the cusparse estimate, so the
 * composer never splits on cost-model noise.
 */
constexpr double kSplitMargin = 0.98;

/**
 * The density view the partition runs on: an A-side profile (group
 * granularity = the partition granularity) and the full B profile
 * for the class estimates. SpMM partitions its strip profile a8 and
 * has no B profile (each class's dual plan re-aggregates its slice
 * for the wide-format estimate).
 */
GemmProfilesView
resolvePartitionView(const KernelRequest &req, const PlanContext &ctx,
                     OperandDigests &digests, bool *hit)
{
    if (req.kind == KernelRequest::Kind::Spmm)
        return {resolveSpmmProfiles(req, ctx, digests, hit).a8, nullptr};
    return resolveGemmProfiles(req, ctx, digests, hit);
}

/**
 * The primitive methods a class of @p req may route to. Zhu is never
 * a candidate (its vector-wise 75% prune is lossy for every GEMM);
 * ampere joins only when the concrete B operand already satisfies
 * the 2:4 pattern, making its forced prune the identity. Pre-encoded
 * operands are consumable by the dual-sparse kernel alone.
 */
std::vector<Method>
candidateMethods(const KernelRequest &req)
{
    if (req.kind == KernelRequest::Kind::Spmm)
        // Zhu and ampere prune B; SpMM's B side is dense by
        // definition, so neither has anything to exploit.
        return {Method::DualSparse, Method::Dense,
                Method::CusparseLike};
    if (req.a.encoded())
        return {Method::DualSparse};
    std::vector<Method> methods = {Method::DualSparse, Method::Dense,
                                   Method::CusparseLike};
    if (req.b.matrix() && conformant2of4(*req.b.matrix()))
        methods.push_back(Method::AmpereSparse);
    return methods;
}

/** @p sub routed to @p method, carrying the fields of @p req every
 *  class sub-request inherits. */
KernelRequest
classSubRequest(const KernelRequest &req, KernelRequest sub,
                Method method)
{
    sub.method = method;
    sub.seed = req.seed;
    sub.tag = req.tag;
    sub.gemm_options = req.gemm_options;
    sub.spmm_format = req.spmm_format;
    return sub;
}

/** Plan-stage stats of one class under one method: the stats() of
 *  the registry's plan of a profile-form sub-request (exact
 *  densities, no values computed). Full stats, not a scalar: the
 *  split objective must merge class components the same way the
 *  hybrid's own stats() does. */
KernelStats
classEstimate(const KernelRequest &req, const PlanContext &ctx,
              const SparsityProfile &a_slice,
              const SparsityProfile *b_full, Method method)
{
    KernelRequest sub = classSubRequest(
        req,
        req.kind == KernelRequest::Kind::Spmm
            ? KernelRequest::spmm(a_slice, req.n)
            : KernelRequest::gemm(a_slice, *b_full),
        method);
    sub.gemm_options.functional = false;
    return ctx.registry->plan(sub, ctx)->stats();
}

/** The hybrid's merged cost of a set of classes: component sums
 *  under the KernelStats rule (max of summed compute and memory plus
 *  every class's launch), NOT the sum of per-class times — a
 *  compute-bound class overlaps a memory-bound one, and the planner
 *  must price splits exactly as the plan's stats() merges them. */
double
mergedTimeUs(const std::vector<const KernelStats *> &classes)
{
    KernelStats acc = *classes.front();
    for (size_t i = 1; i < classes.size(); ++i)
        acc += *classes[i];
    return acc.timeUs();
}

HybridSplit
planSplit(const KernelRequest &req, const PlanContext &ctx,
          const GemmProfilesView &view)
{
    DSTC_ASSERT(ctx.registry,
                "hybrid routes its classes through the registry's "
                "plan(); plan it via KernelRegistry::plan");
    const SparsityProfile &pa = *view.a;
    const SparsityProfile *pb = view.b.get(); // null for SpMM
    const int groups = pa.groups();
    std::vector<double> density(groups);
    for (int g = 0; g < groups; ++g)
        density[g] = pa.groupDensity(g);

    const std::vector<Method> methods = candidateMethods(req);

    // Per-class routing, memoized across thresholds (the low classes
    // of an ascending ladder nest, so many thresholds share classes).
    // The method choice is greedy per class (min standalone time);
    // the split-level objective below then prices the chosen pair
    // under the exact execution merge rule.
    std::map<std::vector<int>, std::pair<Method, KernelStats>> memo;
    auto routeClass =
        [&](const std::vector<int> &cls_groups)
        -> const std::pair<Method, KernelStats> & {
        auto it = memo.find(cls_groups);
        if (it != memo.end())
            return it->second;
        const SparsityProfile slice = pa.selectGroups(cls_groups);
        Method best_m = methods.front();
        KernelStats best_s;
        double best_e = std::numeric_limits<double>::infinity();
        for (Method m : methods) {
            KernelStats s = classEstimate(req, ctx, slice, pb, m);
            if (s.timeUs() < best_e) {
                best_e = s.timeUs();
                best_m = m;
                best_s = std::move(s);
            }
        }
        return memo
            .emplace(cls_groups,
                     std::make_pair(best_m, std::move(best_s)))
            .first->second;
    };

    std::vector<int> all(groups);
    std::iota(all.begin(), all.end(), 0);
    const auto no_split = routeClass(all);

    // Threshold ladder: every distinct observed density above the
    // minimum yields a distinct (low, high) partition; ladders longer
    // than kMaxThresholds are subsampled at evenly spaced ranks. A
    // pinned HybridOptions::threshold replaces the ladder (and wins
    // over no-split whenever both its classes are non-empty — that is
    // what pinning is for).
    const bool pinned = req.hybrid_options.threshold >= 0.0;
    std::vector<double> ladder;
    if (pinned) {
        ladder.push_back(req.hybrid_options.threshold);
    } else {
        std::vector<double> uniq = density;
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()),
                   uniq.end());
        for (size_t i = 1; i < uniq.size(); ++i)
            ladder.push_back(uniq[i]);
        if (static_cast<int>(ladder.size()) > kMaxThresholds) {
            std::vector<double> picked;
            for (int i = 0; i < kMaxThresholds; ++i)
                picked.push_back(
                    ladder[i * (ladder.size() - 1) /
                           (kMaxThresholds - 1)]);
            ladder = std::move(picked);
        }
    }

    double best_total = std::numeric_limits<double>::infinity();
    double best_t = -1.0;
    std::vector<int> best_low, best_high;
    std::pair<Method, KernelStats> best_low_r, best_high_r;
    for (double t : ladder) {
        std::vector<int> low, high;
        for (int g = 0; g < groups; ++g)
            (density[g] < t ? low : high).push_back(g);
        if (low.empty() || high.empty())
            continue; // same partition as no-split
        const auto &rl = routeClass(low);
        const auto &rh = routeClass(high);
        const double total = mergedTimeUs({&rl.second, &rh.second});
        if (total < best_total) {
            best_total = total;
            best_t = t;
            best_low = std::move(low);
            best_high = std::move(high);
            best_low_r = rl;
            best_high_r = rh;
        }
    }

    const bool use_split =
        !best_low.empty() &&
        (pinned ||
         best_total < no_split.second.timeUs() * kSplitMargin);

    HybridSplit split;
    if (!use_split) {
        HybridClass cls;
        cls.method = no_split.first;
        cls.groups = std::move(all);
        cls.estimated_us = no_split.second.timeUs();
        split.total_estimated_us = cls.estimated_us;
        split.classes.push_back(std::move(cls));
        return split;
    }
    split.threshold = best_t;
    split.total_estimated_us = best_total;
    HybridClass low;
    low.method = best_low_r.first;
    low.groups = std::move(best_low);
    low.estimated_us = best_low_r.second.timeUs();
    HybridClass high;
    high.method = best_high_r.first;
    high.groups = std::move(best_high);
    high.estimated_us = best_high_r.second.timeUs();
    split.classes.push_back(std::move(low));
    split.classes.push_back(std::move(high));
    return split;
}

/** "hybrid[dense:3+dual:13]"-style merged stats name. */
std::string
hybridName(const HybridSplit &split)
{
    std::string name = "hybrid[";
    for (size_t i = 0; i < split.classes.size(); ++i) {
        if (i)
            name += '+';
        name += tokenOf(kMethods, split.classes[i].method);
        name += ':';
        name += std::to_string(split.classes[i].groups.size());
    }
    name += ']';
    return name;
}

/** Row gather of the A-side groups of one class (dense/ampere/
 *  cusparse classes consume a concrete A slice). */
Matrix<float>
gatherGroupRows(const Matrix<float> &a,
                const std::vector<int> &groups, int tile)
{
    int rows = 0;
    for (int g : groups)
        rows += std::min(tile, a.rows() - g * tile);
    Matrix<float> out(rows, a.cols());
    int dst = 0;
    for (int g : groups) {
        const int r0 = g * tile;
        const int r1 = std::min(a.rows(), r0 + tile);
        for (int r = r0; r < r1; ++r, ++dst)
            for (int c = 0; c < a.cols(); ++c)
                out.at(dst, c) = a.at(r, c);
    }
    return out;
}

class HybridPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    /** The merged split objective the split was chosen by. It stays
     *  an override: its class estimates are profile-form
     *  sub-requests, so a cuSPARSE-like class of a concrete request
     *  inherits that backend's documented estimate gap. */
    double
    estimate() override
    {
        return split().total_estimated_us;
    }

    /** The class plans' stats() merged under the KernelStats rule;
     *  no values are computed. */
    KernelStats
    timing() override
    {
        const auto &plans = classPlans();
        KernelStats merged = plans.front()->stats();
        for (size_t i = 1; i < plans.size(); ++i)
            merged += plans[i]->stats();
        merged.name = hybridName(split());
        merged.bound = merged.compute_us > merged.memory_us
                           ? Bound::Compute
                           : Bound::Memory;
        return merged;
    }

    /** Executes the class plans sequentially in deterministic (low,
     *  high) order and scatters their rows back to their global
     *  stripes (group g's rows live at g * tile). Each class's kernel
     *  partitions its own tile loop over the shared pool per
     *  SpGemmOptions::num_workers, so the output is bitwise identical
     *  for every worker count and submission path. */
    void
    values(KernelReport &report) override
    {
        const HybridSplit &s = split();
        const auto &plans = classPlans();
        if (!s.split()) {
            report.d = plans.front()->execute().d; // share, don't copy
            return;
        }
        const int tile = partitionTile();
        Matrix<float> d(static_cast<int>(req_.m),
                        static_cast<int>(req_.n));
        for (size_t i = 0; i < plans.size(); ++i) {
            const std::shared_ptr<const Matrix<float>> part =
                plans[i]->execute().d;
            int src = 0;
            for (int g : s.classes[i].groups) {
                const int r0 = g * tile;
                const int r1 =
                    std::min(static_cast<int>(req_.m), r0 + tile);
                for (int row = r0; row < r1; ++row, ++src)
                    for (int c = 0; c < part->cols(); ++c)
                        d.at(row, c) = part->at(src, c);
            }
        }
        report.d = std::make_shared<const Matrix<float>>(std::move(d));
    }

  private:
    const HybridSplit &
    split()
    {
        if (!split_) {
            view_ = resolve(resolvePartitionView);
            split_ = planSplit(req_, ctx_, view_);
        }
        return *split_;
    }

    /** One registry plan per class of the split, planned once: the
     *  stats merge and the values both read them. */
    const std::vector<std::unique_ptr<ExecutionPlan>> &
    classPlans()
    {
        if (class_plans_.empty()) {
            const HybridSplit &s = split();
            matrix_slices_.reserve(s.classes.size());
            encoded_slices_.reserve(s.classes.size());
            profile_slices_.reserve(s.classes.size());
            for (const HybridClass &cls : s.classes)
                class_plans_.push_back(
                    ctx_.registry->plan(classRequest(cls), ctx_));
        }
        return class_plans_;
    }

    /** Tile-row group edge of the partition (the A-side warp-tile
     *  rows; SpMM partitions at strip granularity so a class
     *  boundary never splits a narrow vector). */
    int
    partitionTile() const
    {
        return req_.kind == KernelRequest::Kind::Spmm
                   ? NarrowTileMatrix::kStripRows
                   : kWarpTile;
    }

    /** The sub-request one class executes. Slices are stored on the
     *  plan so the non-owning request pointers stay valid for the
     *  class plans' lifetime. */
    KernelRequest
    classRequest(const HybridClass &cls)
    {
        if (static_cast<int>(cls.groups.size()) == view_.a->groups()) {
            // Single class covering every group: hand the original
            // request to the routed backend unchanged, so the
            // degenerate (uniform-density) case is bitwise the pure
            // single-backend run — stats, output and cache behavior.
            KernelRequest sub = req_;
            sub.method = cls.method;
            sub.hybrid_options = HybridOptions();
            return sub;
        }
        KernelRequest sub;
        const Matrix<float> *a = req_.a.matrix();
        if (req_.kind == KernelRequest::Kind::Spmm) {
            // SpMM classes carry matrix or strip-profile slices; the
            // dual-sparse backend re-chooses its A format per class,
            // so a split can run its dense stripes wide and its
            // ultra-sparse stripes narrow.
            if (a) {
                matrix_slices_.push_back(
                    gatherGroupRows(*a, cls.groups, partitionTile()));
                sub = KernelRequest::spmm(matrix_slices_.back(),
                                          *req_.b.matrix());
            } else {
                profile_slices_.push_back(
                    view_.a->selectGroups(cls.groups));
                sub = KernelRequest::spmm(profile_slices_.back(),
                                          req_.n);
            }
        } else if (cls.method == Method::DualSparse &&
                   req_.functional()) {
            // Concrete operands slice their full two-level
            // encodings — the same cache entries a plain dual-sparse
            // plan of this request builds or reuses.
            if (!a_enc_) {
                a_enc_ = resolve(resolveTwoLevel, false);
                b_enc_ = resolve(resolveTwoLevel, true);
            }
            encoded_slices_.push_back(
                a_enc_->selectTileRows(cls.groups));
            const TwoLevelBitmapMatrix &slice =
                encoded_slices_.back();
            sub.kind = KernelRequest::Kind::Gemm;
            sub.m = slice.rows();
            sub.n = req_.n;
            sub.k = req_.k;
            sub.a = slice;
            sub.b = *b_enc_;
        } else if (a) {
            matrix_slices_.push_back(
                gatherGroupRows(*a, cls.groups, partitionTile()));
            sub = KernelRequest::gemm(matrix_slices_.back(),
                                      *req_.b.matrix());
        } else {
            profile_slices_.push_back(
                view_.a->selectGroups(cls.groups));
            sub = KernelRequest::gemm(profile_slices_.back(),
                                      *view_.b);
        }
        return classSubRequest(req_, std::move(sub), cls.method);
    }

    std::optional<HybridSplit> split_;
    GemmProfilesView view_;
    std::vector<Matrix<float>> matrix_slices_;
    std::vector<TwoLevelBitmapMatrix> encoded_slices_;
    std::vector<SparsityProfile> profile_slices_;
    std::shared_ptr<const TwoLevelBitmapMatrix> a_enc_;
    std::shared_ptr<const TwoLevelBitmapMatrix> b_enc_;
    std::vector<std::unique_ptr<ExecutionPlan>> class_plans_;
};

class HybridBackend : public Backend
{
  public:
    Method method() const override { return Method::Hybrid; }
    const char *name() const override { return "hybrid-partition"; }

    bool
    supports(const KernelRequest &req) const override
    {
        // GEMM and SpMM (the conv paths pick their lowering, not a
        // per-tile backend), in every operand form the registry
        // admits. Integer datatypes are excluded: each density class
        // would quantize its operand slice with a per-class scale, so
        // the stitched output would not match any single-backend
        // result.
        return req.kind != KernelRequest::Kind::Conv &&
               !dataTypeIsInteger(req.gemm_options.dtype);
    }

    // exact() stays true: every class routes to a backend that is
    // exact for that class (ampere is admitted only when its 2:4
    // prune is the identity on the request's B operand).

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        return std::make_unique<HybridPlan>(*this, req, ctx);
    }
};

} // namespace

bool
conformant2of4(const Matrix<float> &b)
{
    // Conformant iff every complete four-column quad of every row
    // holds at most two non-zeros: prune2of4 zeroes the two
    // smallest-magnitude elements of each complete quad, which is
    // the identity exactly then (the trailing partial quad is never
    // pruned).
    for (int r = 0; r < b.rows(); ++r) {
        for (int v0 = 0; v0 + 4 <= b.cols(); v0 += 4) {
            int nnz = 0;
            for (int i = 0; i < 4; ++i)
                nnz += b.at(r, v0 + i) != 0.0f;
            if (nnz > 2)
                return false;
        }
    }
    return true;
}

HybridSplit
planHybridSplit(const KernelRequest &req, const PlanContext &ctx,
                bool *cache_hit)
{
    DSTC_ASSERT(req.kind == KernelRequest::Kind::Gemm ||
                    req.kind == KernelRequest::Kind::Spmm,
                "hybrid partitions GEMM and SpMM requests only");
    OperandDigests digests;
    bool hit = false;
    const GemmProfilesView view =
        resolvePartitionView(req, ctx, digests, &hit);
    if (cache_hit)
        *cache_hit = hit;
    return planSplit(req, ctx, view);
}

std::unique_ptr<Backend>
makeHybridBackend()
{
    return std::make_unique<HybridBackend>();
}

} // namespace dstc
