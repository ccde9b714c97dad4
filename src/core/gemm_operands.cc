#include "core/gemm_operands.h"

#include "sparse/csr.h"
#include "sparse/word_encode.h"

namespace dstc {

GemmProfilesView
resolveGemmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit)
{
    if (req.a_profile && req.b_profile) {
        // Caller-owned encodings: reference them in place (the
        // caller already holds the encode-once artifact, and request
        // operands must outlive the plan by contract).
        return GemmProfilesView::borrowed(req.a_profile,
                                          req.b_profile);
    }
    if (req.a && req.b) {
        CacheKey key("gemm-profiles-from-matrices");
        key.u64(digests.a(*req.a)).u64(digests.b(*req.b));
        const Matrix<float> *a = req.a, *b = req.b;
        return GemmProfilesView::owned(
            ctx.cache->getOrBuild<GemmProfilePair>(
                key.value(),
                [a, b] {
                    // Word-parallel extraction (bitwise identical to
                    // the element-wise fromMatrixA/B references).
                    return GemmProfilePair{
                        SparsityProfile::fromMatrixAWord(*a,
                                                         kWarpTile),
                        SparsityProfile::fromMatrixBWord(*b,
                                                         kWarpTile)};
                },
                hit));
    }
    if (req.a_encoded && req.b_encoded) {
        // Profiles read off the encodings' packing offsets
        // (KernelRegistry::plan asserted the pair's tiling).
        return {std::make_shared<const SparsityProfile>(
                    SparsityProfile::fromEncodedA(*req.a_encoded)),
                std::make_shared<const SparsityProfile>(
                    SparsityProfile::fromEncodedB(*req.b_encoded))};
    }

    CacheKey key("gemm-profiles-synthetic");
    key.i64(req.m).i64(req.n).i64(req.k);
    key.f64(req.a_sparsity)
        .f64(req.b_sparsity)
        .f64(req.a_cluster)
        .f64(req.b_cluster)
        .u64(req.seed);
    const KernelRequest r = req; // by-value for the builder
    return GemmProfilesView::owned(
        ctx.cache->getOrBuild<GemmProfilePair>(
            key.value(),
            [r] {
                Rng rng(r.seed);
                SparsityProfile a = SparsityProfile::randomA(
                    r.m, r.k, kWarpTile, 1.0 - r.a_sparsity,
                    r.a_cluster, rng);
                SparsityProfile b = SparsityProfile::randomA(
                    r.n, r.k, kWarpTile, 1.0 - r.b_sparsity,
                    r.b_cluster, rng);
                return GemmProfilePair{std::move(a), std::move(b)};
            },
            hit));
}

std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevelA(const KernelRequest &req, const PlanContext &ctx,
                 OperandDigests &digests, bool *hit)
{
    const SpGemmOptions &o = req.gemm_options;
    // The encoding's value lane is quantized at the request datatype,
    // so the key folds the dtype: two requests sharing a content
    // digest but differing in datatype must never collide.
    CacheKey key("two-level-a");
    key.u64(digests.a(*req.a))
        .i32(o.tile_k)
        .i32(static_cast<int32_t>(o.dtype));
    const Matrix<float> *a = req.a;
    const int workers = ctx.encode_workers;
    return ctx.cache->getOrBuild<TwoLevelBitmapMatrix>(
        key.value(),
        [a, &o, workers] {
            // Integer scales are matrix-global (serial fabs-max, so
            // the spec is independent of the worker partitioning).
            const QuantSpec spec = QuantSpec::forValues(
                o.dtype, a->data().data(), a->data().size());
            return wordEncodeTwoLevel(*a, kWarpTile, o.tile_k,
                                      Major::Col, workers, spec);
        },
        hit);
}

std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevelB(const KernelRequest &req, const PlanContext &ctx,
                 OperandDigests &digests, bool *hit)
{
    const SpGemmOptions &o = req.gemm_options;
    CacheKey key("two-level-b");
    key.u64(digests.b(*req.b))
        .i32(o.tile_k)
        .i32(static_cast<int32_t>(o.dtype));
    const Matrix<float> *b = req.b;
    const int workers = ctx.encode_workers;
    return ctx.cache->getOrBuild<TwoLevelBitmapMatrix>(
        key.value(),
        [b, &o, workers] {
            const QuantSpec spec = QuantSpec::forValues(
                o.dtype, b->data().data(), b->data().size());
            return wordEncodeTwoLevel(*b, o.tile_k, kWarpTile,
                                      Major::Row, workers, spec);
        },
        hit);
}

std::shared_ptr<const CsrMatrix>
resolveCsr(const KernelRequest &req, const PlanContext &ctx,
           OperandDigests &digests, bool *hit, bool b_side)
{
    const Matrix<float> *m = b_side ? req.b : req.a;
    CacheKey key(b_side ? "csr-b" : "csr-a");
    key.u64(b_side ? digests.b(*m) : digests.a(*m));
    return ctx.cache->getOrBuild<CsrMatrix>(
        key.value(), [m] { return CsrMatrix::encode(*m); }, hit);
}

SparsityProfile
aggregateSpmmProfile(const SparsityProfile &a8)
{
    DSTC_ASSERT(a8.tile() == 8,
                "SpMM strip profiles use tile = 8 granularity");
    const int64_t k = a8.k();
    const int groups32 =
        static_cast<int>(ceilDiv<int64_t>(a8.extent(), 32));
    SparsityProfile a32(groups32, k, 32, a8.extent());
    for (int g = 0; g < groups32; ++g) {
        const int s0 = g * 4;
        const int s1 = std::min(a8.groups(), s0 + 4);
        for (int64_t kk = 0; kk < k; ++kk) {
            int sum = 0;
            for (int s = s0; s < s1; ++s)
                sum += a8.count(s, kk);
            a32.setCount(g, kk, sum);
        }
    }
    return a32;
}

SpmmProfilesView
resolveSpmmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit)
{
    if (req.a_profile) {
        DSTC_ASSERT(req.a_profile->tile() == 8,
                    "SpMM profile requests carry strip (tile = 8) "
                    "profiles");
        // Borrowed strip profile; its aggregation has no digestable
        // identity to cache by, and it is one cheap counts pass.
        SpmmProfilesView v;
        v.a8 = std::shared_ptr<const SparsityProfile>(
            std::shared_ptr<const void>(), req.a_profile);
        v.a32 = std::make_shared<const SparsityProfile>(
            aggregateSpmmProfile(*req.a_profile));
        return v;
    }
    std::shared_ptr<const SpmmProfilePair> pair;
    if (req.a) {
        CacheKey key("spmm-profiles-from-matrix");
        key.u64(digests.a(*req.a));
        const Matrix<float> *a = req.a;
        pair = ctx.cache->getOrBuild<SpmmProfilePair>(
            key.value(),
            [a] {
                SparsityProfile a8 =
                    SparsityProfile::fromMatrixAWord(*a, 8);
                SparsityProfile a32 = aggregateSpmmProfile(a8);
                return SpmmProfilePair{std::move(a8),
                                       std::move(a32)};
            },
            hit);
    } else {
        CacheKey key("spmm-profiles-synthetic");
        key.i64(req.m).i64(req.k);
        key.f64(req.a_sparsity).f64(req.a_cluster).u64(req.seed);
        const KernelRequest r = req;
        pair = ctx.cache->getOrBuild<SpmmProfilePair>(
            key.value(),
            [r] {
                Rng rng(r.seed);
                SparsityProfile a8 = SparsityProfile::randomA(
                    r.m, r.k, 8, 1.0 - r.a_sparsity, r.a_cluster,
                    rng);
                SparsityProfile a32 = aggregateSpmmProfile(a8);
                return SpmmProfilePair{std::move(a8),
                                       std::move(a32)};
            },
            hit);
    }
    SpmmProfilesView v;
    v.a8 = std::shared_ptr<const SparsityProfile>(pair, &pair->a8);
    v.a32 = std::shared_ptr<const SparsityProfile>(pair, &pair->a32);
    return v;
}

std::shared_ptr<const NarrowTileMatrix>
resolveNarrowTileA(const KernelRequest &req, const PlanContext &ctx,
                   OperandDigests &digests, bool *hit)
{
    const SpGemmOptions &o = req.gemm_options;
    CacheKey key("narrow-tile-a");
    key.u64(digests.a(*req.a)).i32(static_cast<int32_t>(o.dtype));
    const Matrix<float> *a = req.a;
    const int workers = ctx.encode_workers;
    return ctx.cache->getOrBuild<NarrowTileMatrix>(
        key.value(),
        [a, &o, workers] {
            const QuantSpec spec = QuantSpec::forValues(
                o.dtype, a->data().data(), a->data().size());
            return wordEncodeNarrowTile(*a, workers, spec);
        },
        hit);
}

double
profileDensity(const SparsityProfile &p)
{
    const double elems = static_cast<double>(p.extent()) *
                         static_cast<double>(p.k());
    return elems > 0 ? p.totalNnz() / elems : 0.0;
}

double
weightSparsity(const KernelRequest &req)
{
    if (req.b)
        return wordSparsity(*req.b);
    if (req.b_profile)
        return 1.0 - profileDensity(*req.b_profile);
    return req.b_sparsity;
}

void
operandDensities(const KernelRequest &req, double *da, double *db)
{
    *da = req.a          ? 1.0 - wordSparsity(*req.a)
          : req.a_profile ? profileDensity(*req.a_profile)
                          : 1.0 - req.a_sparsity;
    *db = req.b          ? 1.0 - wordSparsity(*req.b)
          : req.b_profile ? profileDensity(*req.b_profile)
                          : 1.0 - req.b_sparsity;
}

} // namespace dstc
