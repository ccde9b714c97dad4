/**
 * @file
 * Per-tile reference of the SpGEMM timing model, compiled into the
 * test-only `dstc_reference` library: the tile loop as it stood
 * before timeFromProfiles moved its counters into per-block locals.
 * Each (ti, tj) output tile fills its own outcome, k-step by k-step
 * through enabledOhmmas; the outcomes reduce serially in tile order.
 * The equivalence tests pin timeFromProfiles to this field by field
 * (doubles by bits) for every worker count.
 */
#include "gemm/spgemm_device.h"

#include <algorithm>

#include "common/bitutil.h"
#include "core/thread_pool.h"
#include "isa/program_builder.h"
#include "timing/scheduler.h"

namespace dstc {

namespace {

/** Everything one (ti, tj) output tile contributes to the stats. */
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

KernelStats
SpGemmDevice::timeFromProfilesScalar(const SparsityProfile &a,
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
