/**
 * @file
 * Shared operand-resolution helpers of the plan layer: the cached
 * popcount-profile pair of a request (borrowed, built from matrices,
 * read off pre-encoded operands, or synthesized per seed), the
 * two-level, narrow-tile and CSR encodings of concrete operands, and
 * the density probes the analytic baselines estimate from. Every
 * resolver takes (request, context, OperandDigests, cache-hit flag),
 * the shape ExecutionPlan::resolve() calls. Both the primitive
 * backends (backends.cc) and the hybrid composer (hybrid.cc) resolve
 * operands through these — one implementation, one set of cache
 * keys, so a hybrid plan and a dual-sparse plan of the same operands
 * share their cache entries.
 */
#ifndef DSTC_CORE_GEMM_OPERANDS_H
#define DSTC_CORE_GEMM_OPERANDS_H

#include <memory>

#include "core/backend.h"
#include "gemm/sparsity_profile.h"

namespace dstc {

class CsrMatrix;
class NarrowTileMatrix;

/** The profile pair of one synthetic GEMM operating point. Both
 *  sides share one generator stream (A drawn before B), so the pair
 *  is cached as a unit. */
struct GemmProfilePair
{
    SparsityProfile a;
    SparsityProfile b;

    /** Resident footprint, for the cache's byte-aware bound. */
    size_t
    encodedBytes() const
    {
        return (static_cast<size_t>(a.groups()) * a.k() +
                static_cast<size_t>(b.groups()) * b.k()) *
               sizeof(uint16_t);
    }
};

/** A non-owning handle on a caller-owned operand (request operands
 *  outlive the plan by contract), in the shape the resolvers return. */
template <class T>
std::shared_ptr<const T>
borrowed(const T *p)
{
    return std::shared_ptr<const T>(std::shared_ptr<const void>(), p);
}

/**
 * Non-owning view of a GEMM request's profile pair. Caller-provided
 * profiles are referenced in place (no per-plan copy on the
 * spgemmTime path); cache-built pairs are kept alive through the
 * aliasing owner.
 */
struct GemmProfilesView
{
    std::shared_ptr<const SparsityProfile> a;
    std::shared_ptr<const SparsityProfile> b;

    static GemmProfilesView
    owned(std::shared_ptr<const GemmProfilePair> pair)
    {
        GemmProfilesView v;
        v.a = std::shared_ptr<const SparsityProfile>(pair, &pair->a);
        v.b = std::shared_ptr<const SparsityProfile>(pair, &pair->b);
        return v;
    }
};

/**
 * Resolve (or synthesize) the kWarpTile-granular popcount profiles of
 * a GEMM request. Pre-encoded operands yield profiles read off their
 * packing offsets (SparsityProfile::fromEncodedA/B: exact counts, no
 * decode, no value pass); KernelRegistry::plan has already asserted
 * their tiling, so the view is never empty.
 */
GemmProfilesView
resolveGemmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit);

/**
 * Two-level encoding of a request's A operand, or of its B operand
 * when @p b_side. A pre-encoded operand is referenced in place; a
 * concrete matrix is encoded through the cache by the word-parallel
 * encoder at the request's tile_k (bitwise identical to the
 * element-wise encode for every ctx.encode_workers setting, so the
 * key — family "two-level-a" / "two-level-b" — carries only the
 * operand digest, tile_k and datatype). Keyed here, in one place, so
 * a hybrid class slice and a dual-sparse plan of the same operand
 * share one cache entry.
 */
std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevel(const KernelRequest &req, const PlanContext &ctx,
                OperandDigests &digests, bool *hit, bool b_side);

/**
 * Cache-backed CSR encoding of a request's concrete A operand (key
 * family "csr-a"), or of its B operand when @p b_side (key family
 * "csr-b"). The encoding stays raw FP32: dtype-invariant, so requests
 * of every datatype share one entry.
 */
std::shared_ptr<const CsrMatrix>
resolveCsr(const KernelRequest &req, const PlanContext &ctx,
           OperandDigests &digests, bool *hit, bool b_side);

/**
 * The A-side profile pair of one SpMM request: the strip-granular
 * (tile = 8) profile the narrow-format estimate runs on, and its
 * exact warp-tile (tile = 32) aggregation for the wide-format
 * estimate. Derived from one pattern — aggregation sums groups of
 * four strips — so the two format estimates always see the same
 * operand, synthetic points included.
 */
struct SpmmProfilePair
{
    SparsityProfile a8;
    SparsityProfile a32;

    /** Resident footprint, for the cache's byte-aware bound. */
    size_t
    encodedBytes() const
    {
        return (static_cast<size_t>(a8.groups()) * a8.k() +
                static_cast<size_t>(a32.groups()) * a32.k()) *
               sizeof(uint16_t);
    }
};

/** Non-owning view of an SpMM request's A-side profile pair. */
struct SpmmProfilesView
{
    std::shared_ptr<const SparsityProfile> a8;
    std::shared_ptr<const SparsityProfile> a32;

    explicit operator bool() const { return a8 && a32; }
};

/**
 * Exact warp-tile aggregation of a strip-granular A profile: group g
 * of the tile-32 result sums strips 4g .. 4g+3, so
 * aggregateSpmmProfile(fromMatrixAWord(a, 8)) equals
 * fromMatrixAWord(a, 32) count-for-count.
 */
SparsityProfile aggregateSpmmProfile(const SparsityProfile &a8);

/**
 * Resolve (or synthesize) the A-side profiles of an SpMM request:
 * caller-provided strip profiles are referenced in place (their
 * aggregation is built fresh — no digestable identity to cache by);
 * concrete and synthetic operands resolve through the cache.
 */
SpmmProfilesView
resolveSpmmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit);

/**
 * Cache-backed narrow-tile encoding of an SpMM request's concrete A
 * operand (a matrix), built by the word-parallel encoder
 * (bitwise identical to the scalar NarrowTileMatrix::encode for
 * every ctx.encode_workers setting).
 */
std::shared_ptr<const NarrowTileMatrix>
resolveNarrowTileA(const KernelRequest &req, const PlanContext &ctx,
                   OperandDigests &digests, bool *hit);

} // namespace dstc

#endif // DSTC_CORE_GEMM_OPERANDS_H
