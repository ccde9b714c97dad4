#include "gemm/spgemm_device.h"

#include <algorithm>

#include "common/bitutil.h"
#include "core/thread_pool.h"
#include "gemm/lane_step.h"
#include "timing/scheduler.h"

namespace dstc {

namespace {

/**
 * Fixed per-tile-pair pipeline cost: shared-memory operand staging
 * and accumulator spill/fill between K chunks. Amortized over the
 * SpWMMA's 32 k-steps this is small, but it keeps fully-sparse tiles
 * from looking free when they still had to be scheduled.
 */
constexpr int64_t kTileOverheadCycles = 4;

static_assert(LaneTile::kDim == kWarpTile && kLanes == kWarpTile,
              "the lane tile stages one warp tile's accumulator");

/**
 * Everything one (ti, tj) output tile contributes to the kernel
 * stats. Workers fill one outcome per tile concurrently; the caller
 * reduces them serially in tile order, so the aggregated stats (and
 * every floating-point sum) are bitwise identical to the serial
 * loop regardless of worker count.
 */
struct TileOutcome
{
    InstructionMix mix;
    int64_t merge_cycles = 0;
    int64_t warp_tiles = 0;
    int64_t warp_tiles_skipped = 0;
    std::vector<int64_t> work; ///< per surviving k-chunk, in tk order
    double p_cell_zero = 1.0;
};

} // namespace

SpGemmDevice::SpGemmDevice(const GpuConfig &cfg)
    : cfg_(cfg), warp_engine_(cfg), memory_model_(cfg)
{
}

SpGemmResult
SpGemmDevice::multiply(const Matrix<float> &a, const Matrix<float> &b,
                       const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.cols() == b.rows(), "SpGEMM dims: ", a.rows(), "x",
                a.cols(), " * ", b.rows(), "x", b.cols());

    // Two-level encodings: A tiled (32 x tile_k) column-major, B
    // tiled (tile_k x 32) row-major (Fig. 8b / Fig. 9). The
    // per-matrix QuantSpec fills each side's quantized value lane.
    const QuantSpec spec_a = QuantSpec::forValues(
        options.dtype, a.data().data(), a.data().size());
    const QuantSpec spec_b = QuantSpec::forValues(
        options.dtype, b.data().data(), b.data().size());
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, options.tile_k, Major::Col, spec_a);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, options.tile_k, kWarpTile, Major::Row, spec_b);
    return multiplyEncoded(a_enc, b_enc, options);
}

SpGemmResult
SpGemmDevice::multiplyEncoded(const TwoLevelBitmapMatrix &a_enc,
                              const TwoLevelBitmapMatrix &b_enc,
                              const SpGemmOptions &options) const
{
    // The encodings carry the authoritative datatype: their quantized
    // value lanes were filled at encode time, so options.dtype is
    // only advisory here.
    DSTC_ASSERT(a_enc.spec().dtype == b_enc.spec().dtype,
                "operand datatypes must match: ",
                tokenOf(kDataTypes, a_enc.spec().dtype), " vs ",
                tokenOf(kDataTypes, b_enc.spec().dtype));
    SpGemmResult result;
    if (options.functional)
        result.d = multiplyValues(a_enc, b_enc, options);
    SpGemmOptions timing = options;
    timing.dtype = a_enc.spec().dtype;
    result.stats = timeFromProfiles(SparsityProfile::fromEncodedA(a_enc),
                                    SparsityProfile::fromEncodedB(b_enc),
                                    timing);
    return result;
}

Matrix<float>
SpGemmDevice::multiplyValues(const TwoLevelBitmapMatrix &a_enc,
                             const TwoLevelBitmapMatrix &b_enc,
                             const SpGemmOptions &options) const
{
    DSTC_ASSERT(a_enc.cols() == b_enc.rows(),
                "SpGEMM dims: ", a_enc.rows(), "x", a_enc.cols(), " * ",
                b_enc.rows(), "x", b_enc.cols());
    DSTC_ASSERT(a_enc.tileRows() == kWarpTile &&
                    a_enc.tileCols() == options.tile_k &&
                    b_enc.tileRows() == options.tile_k &&
                    b_enc.tileCols() == kWarpTile,
                "operand tiling must match the SpGEMM options");
    const int m = a_enc.rows(), n = b_enc.cols();
    const int tiles_k = a_enc.numTileCols();
    const int tiles_n = b_enc.numTileCols();
    DSTC_ASSERT(tiles_k == b_enc.numTileRows());

    Matrix<float> d(m, n);
    if (m == 0 || n == 0)
        return d;
    float *d_base = d.data().data();
    const StripKernelFn kernel = stripKernel();

    // The denser operand goes on the 32 lanes. Each strip of it (a
    // tile row of A, or a tile column of B) is expanded once, then
    // every output tile along the strip accumulates from it.
    const bool a_lanes = aOnLanes(a_enc.nnz(), b_enc.nnz(), m, n);
    const int tiles_m = a_enc.numTileRows();
    const int strips = a_lanes ? tiles_m : tiles_n;
    const int per_strip = a_lanes ? tiles_n : tiles_m;
    // Tile (strip or output-tile index, tk) of each side; null where
    // the warp bit is 0 (the chunk adds nothing).
    auto lane_tile = [&](int s, int tk) -> const BitmapMatrix * {
        if (a_lanes)
            return a_enc.tileNonEmpty(s, tk) ? &a_enc.tile(s, tk) : nullptr;
        return b_enc.tileNonEmpty(tk, s) ? &b_enc.tile(tk, s) : nullptr;
    };
    auto other_tile = [&](int o, int tk) -> const BitmapMatrix * {
        if (a_lanes)
            return b_enc.tileNonEmpty(tk, o) ? &b_enc.tile(tk, o) : nullptr;
        return a_enc.tileNonEmpty(o, tk) ? &a_enc.tile(o, tk) : nullptr;
    };

    // Work items are (strip, block of output tiles): output tiles are
    // disjoint regions of D, so any split gives the same D. Serially
    // a strip is one block; with workers strips are cut into blocks
    // until there are kItemsPerWorker items per worker, so that a
    // few strips still feed every worker. Each block re-expands its
    // strip once.
    constexpr int kItemsPerWorker = 4;
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    const int blocks =
        max_workers == 1
            ? 1
            : std::clamp(ceilDiv(kItemsPerWorker * max_workers, strips),
                         1, per_strip);
    auto run_block = [&](int64_t item) {
        const int s = static_cast<int>(item / blocks);
        const int blk = static_cast<int>(item % blocks);
        thread_local std::vector<const BitmapMatrix *> lane_tiles, others;
        thread_local LaneStrip strip;
        thread_local LaneTile stage;
        lane_tiles.resize(static_cast<size_t>(tiles_k));
        others.resize(static_cast<size_t>(tiles_k));
        for (int tk = 0; tk < tiles_k; ++tk)
            lane_tiles[tk] = lane_tile(s, tk);
        strip.expand(lane_tiles, options.tile_k);
        for (int o = blk * per_strip / blocks;
             o < (blk + 1) * per_strip / blocks; ++o) {
            for (int tk = 0; tk < tiles_k; ++tk)
                others[tk] = lane_tiles[tk] ? other_tile(o, tk) : nullptr;
            const int ti = a_lanes ? s : o, tj = a_lanes ? o : s;
            const int rows = std::min(kWarpTile, m - ti * kWarpTile);
            const int cols = std::min(kWarpTile, n - tj * kWarpTile);
            // The staged rows are the other operand's positions.
            std::fill_n(stage.v, (a_lanes ? cols : rows) * LaneTile::kDim,
                        0.0f);
            kernel(stage.v, strip, others.data());
            storeLaneTile(stage.v, rows, cols, a_lanes,
                          d_base + static_cast<size_t>(ti) * kWarpTile * n +
                              static_cast<size_t>(tj) * kWarpTile,
                          n);
        }
    };
    parallelFor(pool, static_cast<int64_t>(strips) * blocks, max_workers,
                run_block);

    // Integer datatypes accumulate integer codes (exact in FP32 below
    // 2^24); the physical scale sa * sb is applied once per output
    // element here, after all accumulation, so the result is
    // independent of tile/worker partitioning.
    const float out_scale =
        QuantSpec::outputScale(a_enc.spec(), b_enc.spec());
    if (out_scale != 1.0f)
        for (float &v : d.data())
            v *= out_scale;
    return d;
}

KernelStats
SpGemmDevice::timeFromProfiles(const SparsityProfile &a,
                               const SparsityProfile &b,
                               const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.k() == b.k(), "profile K mismatch");
    DSTC_ASSERT(a.tile() == kWarpTile && b.tile() == kWarpTile,
                "profiles must use the ", kWarpTile, "-wide warp tile");
    const int64_t k = a.k();
    const int tiles_m = a.groups();
    const int tiles_n = b.groups();
    const int tiles_k =
        static_cast<int>(ceilDiv(k, static_cast<int64_t>(options.tile_k)));
    const SpWmmaShape shape = warp_engine_.shape();
    MergeCostModel merge_model(cfg_.accum_banks, cfg_.operand_collector);

    KernelStats stats;
    stats.name = "dstc_spgemm";

    // Per-(group, k-chunk) tile non-zeros for the warp-bitmap skip.
    auto tile_nnz = [&](const SparsityProfile &p) {
        std::vector<int64_t> nnz(
            static_cast<size_t>(p.groups()) * tiles_k);
        for (int g = 0; g < p.groups(); ++g)
            for (int tk = 0; tk < tiles_k; ++tk)
                nnz[static_cast<size_t>(g) * tiles_k + tk] =
                    p.tileNnz(g, tk, options.tile_k);
        return nnz;
    };
    const auto a_tile_nnz = tile_nnz(a);
    const auto b_tile_nnz = tile_nnz(b);

    const double tile_cells =
        static_cast<double>(kWarpTile) * kWarpTile;

    const int64_t total_tiles =
        static_cast<int64_t>(tiles_m) * tiles_n;
    std::vector<TileOutcome> outcomes(
        static_cast<size_t>(total_tiles));

    auto run_tile = [&](int64_t t) {
        const int ti = static_cast<int>(t / tiles_n);
        const int tj = static_cast<int>(t % tiles_n);
        TileOutcome &out = outcomes[static_cast<size_t>(t)];
        out.work.reserve(static_cast<size_t>(tiles_k));
        for (int tk = 0; tk < tiles_k; ++tk) {
            const bool a_empty =
                a_tile_nnz[static_cast<size_t>(ti) * tiles_k + tk] ==
                0;
            const bool b_empty =
                b_tile_nnz[static_cast<size_t>(tj) * tiles_k + tk] ==
                0;
            if (options.two_level && (a_empty || b_empty)) {
                ++out.warp_tiles_skipped;
                continue;
            }
            ++out.warp_tiles;
            const int64_t k_lo =
                static_cast<int64_t>(tk) * options.tile_k;
            const int64_t k_hi = std::min(k, k_lo + options.tile_k);
            int64_t issued = 0, accesses = 0, bohmma = 0;
            for (int64_t kk = k_lo; kk < k_hi; ++kk) {
                const int na = a.count(ti, kk);
                const int nb = b.count(tj, kk);
                if (na == 0 || nb == 0)
                    continue;
                out.mix.popc += 2;
                ++bohmma;
                const int enabled = enabledOhmmas(na, nb, shape);
                issued += enabled;
                out.mix.ohmma_skipped +=
                    shape.ohmmasPerSet() - enabled;
                accesses += static_cast<int64_t>(na) * nb;
                out.p_cell_zero *= 1.0 - static_cast<double>(na) * nb /
                                             tile_cells;
            }
            out.mix.bohmma += bohmma;
            out.mix.ohmma_issued += issued;
            const int64_t issue_cycles = issued + bohmma;
            const int64_t scalar_cycles = bohmma + 2;
            const int64_t merge_cycles = static_cast<int64_t>(
                merge_model.tileCycles(accesses, issued));
            out.merge_cycles += merge_cycles;
            out.work.push_back(std::max({issue_cycles, merge_cycles,
                                         scalar_cycles}) +
                               kTileOverheadCycles);
        }
    };
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    parallelFor(pool, total_tiles, max_workers, run_tile);

    std::vector<int64_t> work;
    work.reserve(static_cast<size_t>(total_tiles));
    double output_nnz_estimate = 0.0;
    for (const TileOutcome &out : outcomes) {
        stats.mix += out.mix;
        stats.merge_cycles += out.merge_cycles;
        stats.warp_tiles += out.warp_tiles;
        stats.warp_tiles_skipped += out.warp_tiles_skipped;
        work.insert(work.end(), out.work.begin(), out.work.end());
        output_nnz_estimate += (1.0 - out.p_cell_zero) * tile_cells;
    }

    int64_t makespan = lptMakespan(work, cfg_.totalSubcores());
    stats.compute_us =
        static_cast<double>(makespan) /
        (cfg_.clock_ghz * 1e3 * cfg_.sparse_issue_efficiency *
         dataTypeComputeScale(options.dtype));

    const int64_t m = static_cast<int64_t>(tiles_m) * kWarpTile;
    const int64_t n = static_cast<int64_t>(tiles_n) * kWarpTile;
    const double bytes_a =
        static_cast<double>(a.encodedBytes(options.tile_k, options.dtype));
    const double bytes_b =
        static_cast<double>(b.encodedBytes(options.tile_k, options.dtype));
    const double out_bytes = dataTypeOutputBytes(options.dtype);
    const double d_dense = static_cast<double>(m) * n * out_bytes;
    const double d_sparse = static_cast<double>(m) * n / 8.0 +
                            output_nnz_estimate * out_bytes;
    const double bytes_d = options.sparse_output
                               ? std::min(d_dense, d_sparse)
                               : d_dense;
    stats.dram_bytes =
        memory_model_.gemmTrafficBytes(m, n, bytes_a, bytes_b, bytes_d);
    stats.memory_us = memory_model_.dramTimeUs(stats.dram_bytes);
    stats.launch_us = cfg_.kernel_launch_us;
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

} // namespace dstc
