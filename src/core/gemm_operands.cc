#include "core/gemm_operands.h"

#include "sparse/csr.h"
#include "sparse/word_encode.h"

namespace dstc {

GemmProfilesView
resolveGemmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit)
{
    // KernelRegistry::plan admitted only same-form pairs.
    if (req.a.profile())
        // Caller-owned encodings: reference them in place (the
        // caller already holds the encode-once artifact).
        return {borrowed(req.a.profile()), borrowed(req.b.profile())};
    if (const Matrix<float> *a = req.a.matrix()) {
        const Matrix<float> *b = req.b.matrix();
        CacheKey key("gemm-profiles-from-matrices");
        key.u64(digests.a(*a).digest).u64(digests.b(*b).digest);
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
    if (const TwoLevelBitmapMatrix *a = req.a.encoded()) {
        // Profiles read off the encodings' packing offsets
        // (KernelRegistry::plan asserted the pair's tiling).
        return {std::make_shared<const SparsityProfile>(
                    SparsityProfile::fromEncodedA(*a)),
                std::make_shared<const SparsityProfile>(
                    SparsityProfile::fromEncodedB(*req.b.encoded()))};
    }

    const Operand::Synthetic sa = *req.a.synthetic();
    const Operand::Synthetic sb = *req.b.synthetic();
    CacheKey key("gemm-profiles-synthetic");
    key.i64(req.m).i64(req.n).i64(req.k);
    key.f64(sa.sparsity)
        .f64(sb.sparsity)
        .f64(sa.cluster)
        .f64(sb.cluster)
        .u64(req.seed);
    const int64_t m = req.m, n = req.n, k = req.k;
    const uint64_t seed = req.seed;
    return GemmProfilesView::owned(
        ctx.cache->getOrBuild<GemmProfilePair>(
            key.value(),
            [=] {
                Rng rng(seed);
                SparsityProfile a = SparsityProfile::randomA(
                    m, k, kWarpTile, 1.0 - sa.sparsity, sa.cluster,
                    rng);
                SparsityProfile b = SparsityProfile::randomA(
                    n, k, kWarpTile, 1.0 - sb.sparsity, sb.cluster,
                    rng);
                return GemmProfilePair{std::move(a), std::move(b)};
            },
            hit));
}

std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevel(const KernelRequest &req, const PlanContext &ctx,
                OperandDigests &digests, bool *hit, bool b_side)
{
    const Operand &side = b_side ? req.b : req.a;
    if (side.encoded())
        return borrowed(side.encoded());
    const SpGemmOptions &o = req.gemm_options;
    const Matrix<float> *m = side.matrix();
    // The encoding's value lane is quantized at the request datatype,
    // so the key folds the dtype: two requests sharing a content
    // digest but differing in datatype must never collide.
    CacheKey key(b_side ? "two-level-b" : "two-level-a");
    key.u64((b_side ? digests.b(*m) : digests.a(*m)).digest)
        .i32(o.tile_k)
        .i32(static_cast<int32_t>(o.dtype));
    const int workers = ctx.encode_workers;
    return ctx.cache->getOrBuild<TwoLevelBitmapMatrix>(
        key.value(),
        [m, &o, workers, b_side] {
            // Integer scales are matrix-global (serial fabs-max, so
            // the spec is independent of the worker partitioning).
            const QuantSpec spec = QuantSpec::forValues(
                o.dtype, m->data().data(), m->data().size());
            // A is column-major kWarpTile x tile_k tiles, B row-major
            // tile_k x kWarpTile tiles.
            return b_side ? wordEncodeTwoLevel(*m, o.tile_k, kWarpTile,
                                               Major::Row, workers, spec)
                          : wordEncodeTwoLevel(*m, kWarpTile, o.tile_k,
                                               Major::Col, workers, spec);
        },
        hit);
}

std::shared_ptr<const CsrMatrix>
resolveCsr(const KernelRequest &req, const PlanContext &ctx,
           OperandDigests &digests, bool *hit, bool b_side)
{
    const Matrix<float> *m = (b_side ? req.b : req.a).matrix();
    CacheKey key(b_side ? "csr-b" : "csr-a");
    key.u64((b_side ? digests.b(*m) : digests.a(*m)).digest);
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
    if (const SparsityProfile *a8 = req.a.profile()) {
        // Borrowed strip profile; its aggregation has no digestable
        // identity to cache by, and it is one cheap counts pass.
        return {borrowed(a8), std::make_shared<const SparsityProfile>(
                                  aggregateSpmmProfile(*a8))};
    }
    std::shared_ptr<const SpmmProfilePair> pair;
    if (const Matrix<float> *a = req.a.matrix()) {
        CacheKey key("spmm-profiles-from-matrix");
        key.u64(digests.a(*a).digest);
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
        const Operand::Synthetic sa = *req.a.synthetic();
        CacheKey key("spmm-profiles-synthetic");
        key.i64(req.m).i64(req.k);
        key.f64(sa.sparsity).f64(sa.cluster).u64(req.seed);
        const int64_t m = req.m, k = req.k;
        const uint64_t seed = req.seed;
        pair = ctx.cache->getOrBuild<SpmmProfilePair>(
            key.value(),
            [=] {
                Rng rng(seed);
                SparsityProfile a8 = SparsityProfile::randomA(
                    m, k, 8, 1.0 - sa.sparsity, sa.cluster, rng);
                SparsityProfile a32 = aggregateSpmmProfile(a8);
                return SpmmProfilePair{std::move(a8),
                                       std::move(a32)};
            },
            hit);
    }
    return {std::shared_ptr<const SparsityProfile>(pair, &pair->a8),
            std::shared_ptr<const SparsityProfile>(pair, &pair->a32)};
}

std::shared_ptr<const NarrowTileMatrix>
resolveNarrowTileA(const KernelRequest &req, const PlanContext &ctx,
                   OperandDigests &digests, bool *hit)
{
    const SpGemmOptions &o = req.gemm_options;
    const Matrix<float> *a = req.a.matrix();
    CacheKey key("narrow-tile-a");
    key.u64(digests.a(*a).digest).i32(static_cast<int32_t>(o.dtype));
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

} // namespace dstc
