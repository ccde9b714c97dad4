#include "gemm/spgemm_device.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/bitutil.h"
#include "core/thread_pool.h"
#include "gemm/lane_step.h"
#include "timing/scheduler.h"

namespace dstc {

namespace {

static_assert(LaneTile::kDim == kWarpTile && kLanes == kWarpTile,
              "the lane tile stages one warp tile's accumulator");

/**
 * What one block of output tiles contributes to the kernel stats: its
 * integer counters and the work of its surviving k-chunks in
 * (ti, tj, tk) order. Blocks are contiguous in tile order, so
 * reducing them in block order gives the serial loop's counters and
 * work sequence for every worker count.
 */
struct BlockOutcome
{
    InstructionMix mix;
    int64_t merge_cycles = 0;
    int64_t warp_tiles = 0;
    int64_t warp_tiles_skipped = 0;
    std::vector<int64_t> work;
};

/**
 * Fig. 15 per line of a profile: a line of popcount c enables
 * ceil(c / chunk) of its side's OHMMA chunks, and a k-step enables
 * the product of its two lines' counts (0 when either is empty).
 * groups() x k(), row-major by group like the counts. Chunks are
 * powers of two, so the division is a shift and the pass vectorizes.
 */
std::vector<uint8_t>
lineChunks(const SparsityProfile &p, int chunk)
{
    DSTC_ASSERT(std::has_single_bit(static_cast<unsigned>(chunk)),
                "OHMMA chunk ", chunk, " is not a power of two");
    const int shift = std::countr_zero(static_cast<unsigned>(chunk));
    const int64_t k = p.k();
    std::vector<uint8_t> chunks(static_cast<size_t>(p.groups()) * k);
    for (int g = 0; g < p.groups(); ++g) {
        const uint16_t *counts = p.groupCounts(g);
        uint8_t *out = chunks.data() + static_cast<size_t>(g) * k;
        // setCount bounds every count by the warp tile, so the
        // chunk count fits a byte.
        for (int64_t kk = 0; kk < k; ++kk)
            out[kk] = static_cast<uint8_t>((counts[kk] + chunk - 1) >>
                                           shift);
    }
    return chunks;
}

/** The counters of one tile pair's k-steps over one k-range. */
struct StepSums
{
    int64_t bohmma = 0;   ///< live steps: both lines non-empty
    int64_t issued = 0;   ///< enabled OHMMAs
    int64_t accesses = 0; ///< merge accesses, na * nb per step
};

/** Steps per 32-bit partial sum: the sums vectorize, and a run this
 *  long of at most kWarpTile^2 accesses per step cannot overflow. */
constexpr int64_t kStepsPerRun = int64_t{1} << 16;
static_assert(kStepsPerRun * kWarpTile * kWarpTile <= INT32_MAX);

StepSums
sumSteps(const uint16_t *a_counts, const uint16_t *b_counts,
         const uint8_t *a_chunks, const uint8_t *b_chunks, int64_t lo,
         int64_t hi)
{
    StepSums sums;
    for (int64_t run = lo; run < hi; run += kStepsPerRun) {
        const int64_t end = std::min(hi, run + kStepsPerRun);
        int32_t bohmma = 0, issued = 0, accesses = 0;
        for (int64_t kk = run; kk < end; ++kk) {
            const int32_t cells = a_counts[kk] * b_counts[kk];
            bohmma += cells != 0;
            issued += a_chunks[kk] * b_chunks[kk];
            accesses += cells;
        }
        sums.bohmma += bohmma;
        sums.issued += issued;
        sums.accesses += accesses;
    }
    return sums;
}

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
    const int a_nnz = a_enc.nnz(), b_nnz = b_enc.nnz();
    const bool a_lanes = aOnLanes(a_nnz, b_nnz, m, n);
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
    // strip once. The shared pool's default (num_workers 0) sizes
    // itself to the lane work, at most one 32-lane step per strip and
    // non-zero of the other operand: a pool round trip costs more
    // than a small kernel's, so each worker gets at least
    // kMinLaneStepsPerWorker of it.
    constexpr int kItemsPerWorker = 4;
    constexpr int64_t kMinLaneStepsPerWorker = int64_t{1} << 15;
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    if (options.num_workers == 0)
        max_workers = static_cast<int>(std::clamp<int64_t>(
            static_cast<int64_t>(strips) * (a_lanes ? b_nnz : a_nnz) /
                kMinLaneStepsPerWorker,
            1, max_workers));
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
    const SpWmmaShape shape = warp_engine_.shape();
    DSTC_ASSERT(shape.m == kWarpTile && shape.n == kWarpTile,
                "the SpWMMA set must cover one warp tile");
    const int64_t k = a.k();
    const int tile_k = options.tile_k;
    const int tiles_m = a.groups();
    const int tiles_n = b.groups();
    const int tiles_k =
        static_cast<int>(ceilDiv(k, static_cast<int64_t>(tile_k)));
    const MergeCostModel merge_model(cfg_.accum_banks,
                                     cfg_.operand_collector);

    KernelStats stats;
    stats.name = "dstc_spgemm";

    // Read off each profile once, before the tile loop: the
    // per-(group, k-chunk) non-zeros, which the warp-bitmap skip and
    // both encoded footprints read, and the per-line OHMMA chunks.
    const std::vector<int64_t> a_tile_nnz = a.tileNnzTable(tile_k);
    const std::vector<int64_t> b_tile_nnz = b.tileNnzTable(tile_k);
    const std::vector<uint8_t> a_chunks = lineChunks(a, shape.a_chunk);
    const std::vector<uint8_t> b_chunks = lineChunks(b, shape.b_chunk);
    const double tile_cells =
        static_cast<double>(kWarpTile) * kWarpTile;

    // Workers own contiguous blocks of output tiles in (ti, tj)
    // order. The shared pool's default (num_workers 0) sizes itself
    // to the work: a block is worth a pool job only with enough
    // k-steps to repay handing it out, so small kernels stay in the
    // caller.
    const int64_t total_tiles = static_cast<int64_t>(tiles_m) * tiles_n;
    constexpr int kBlocksPerWorker = 4;
    constexpr int64_t kMinStepsPerBlock = int64_t{1} << 15;
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    int64_t blocks =
        max_workers == 1
            ? 1
            : std::min<int64_t>(total_tiles,
                                kBlocksPerWorker * max_workers);
    if (options.num_workers == 0)
        blocks = std::clamp<int64_t>(total_tiles * k / kMinStepsPerBlock,
                                     1, blocks);
    std::vector<BlockOutcome> outcomes(static_cast<size_t>(blocks));
    std::vector<double> p_cell_zero(
        options.sparse_output ? static_cast<size_t>(total_tiles) : 0);
    // A block counts in locals. Per k-step the counters are sums: a
    // live step (both lines non-empty) issues one BOHMMA, two POPCs
    // and its enabled OHMMAs and squashes the rest of the set. Only
    // the sparse write-back reads the expected output non-zeros,
    // whose per-tile product runs in the same k order as the per-tile
    // loop; a dead step multiplies it by exactly 1.
    auto run_block = [&](int64_t blk) {
        int64_t bohmma = 0, issued = 0, merge_cycles = 0;
        int64_t warp_tiles = 0, skipped = 0;
        std::vector<int64_t> work;
        const int64_t t_lo = blk * total_tiles / blocks;
        const int64_t t_hi = (blk + 1) * total_tiles / blocks;
        work.reserve(static_cast<size_t>((t_hi - t_lo) * tiles_k));
        for (int64_t t = t_lo; t < t_hi; ++t) {
            const int ti = static_cast<int>(t / tiles_n);
            const int tj = static_cast<int>(t % tiles_n);
            const uint16_t *a_counts = a.groupCounts(ti);
            const uint16_t *b_counts = b.groupCounts(tj);
            const uint8_t *a_ch =
                a_chunks.data() + static_cast<size_t>(ti) * k;
            const uint8_t *b_ch =
                b_chunks.data() + static_cast<size_t>(tj) * k;
            const int64_t *a_nnz =
                a_tile_nnz.data() + static_cast<size_t>(ti) * tiles_k;
            const int64_t *b_nnz =
                b_tile_nnz.data() + static_cast<size_t>(tj) * tiles_k;
            double p_zero = 1.0;
            for (int tk = 0; tk < tiles_k; ++tk) {
                if (options.two_level &&
                    (a_nnz[tk] == 0 || b_nnz[tk] == 0)) {
                    ++skipped;
                    continue;
                }
                ++warp_tiles;
                const int64_t k_lo = static_cast<int64_t>(tk) * tile_k;
                const int64_t k_hi = std::min(k, k_lo + tile_k);
                const StepSums chunk =
                    sumSteps(a_counts, b_counts, a_ch, b_ch, k_lo, k_hi);
                if (options.sparse_output)
                    for (int64_t kk = k_lo; kk < k_hi; ++kk)
                        p_zero *= 1.0 - static_cast<double>(
                                            a_counts[kk] * b_counts[kk]) /
                                            tile_cells;
                bohmma += chunk.bohmma;
                issued += chunk.issued;
                const int64_t chunk_merge = static_cast<int64_t>(
                    merge_model.tileCycles(chunk.accesses, chunk.issued));
                merge_cycles += chunk_merge;
                work.push_back(std::max({chunk.issued + chunk.bohmma,
                                         chunk_merge, chunk.bohmma + 2}) +
                               kTileOverheadCycles);
            }
            if (options.sparse_output)
                p_cell_zero[static_cast<size_t>(t)] = p_zero;
        }
        BlockOutcome &out = outcomes[static_cast<size_t>(blk)];
        out.mix.popc = 2 * bohmma;
        out.mix.bohmma = bohmma;
        out.mix.ohmma_issued = issued;
        out.mix.ohmma_skipped = shape.ohmmasPerSet() * bohmma - issued;
        out.merge_cycles = merge_cycles;
        out.warp_tiles = warp_tiles;
        out.warp_tiles_skipped = skipped;
        out.work = std::move(work);
    };
    parallelFor(pool, blocks, max_workers, run_block);

    std::vector<int64_t> work = std::move(outcomes.front().work);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const BlockOutcome &out = outcomes[i];
        stats.mix += out.mix;
        stats.merge_cycles += out.merge_cycles;
        stats.warp_tiles += out.warp_tiles;
        stats.warp_tiles_skipped += out.warp_tiles_skipped;
        if (i > 0)
            work.insert(work.end(), out.work.begin(), out.work.end());
    }
    double output_nnz_estimate = 0.0;
    for (double p : p_cell_zero)
        output_nnz_estimate += (1.0 - p) * tile_cells;

    const int64_t makespan =
        lptMakespan(std::move(work), cfg_.totalSubcores());
    stats.compute_us =
        static_cast<double>(makespan) /
        (cfg_.clock_ghz * 1e3 * cfg_.sparse_issue_efficiency *
         dataTypeComputeScale(options.dtype));

    const int64_t m = static_cast<int64_t>(tiles_m) * kWarpTile;
    const int64_t n = static_cast<int64_t>(tiles_n) * kWarpTile;
    const double bytes_a = static_cast<double>(
        a.encodedBytes(a_tile_nnz, tile_k, options.dtype));
    const double bytes_b = static_cast<double>(
        b.encodedBytes(b_tile_nnz, tile_k, options.dtype));
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
