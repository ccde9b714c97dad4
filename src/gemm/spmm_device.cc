#include "gemm/spmm_device.h"

#include <algorithm>

#include "common/bitutil.h"
#include "core/thread_pool.h"
#include "isa/program_builder.h"
#include "timing/merge_model.h"
#include "timing/scheduler.h"

namespace dstc {

namespace {

/** Same fixed per-tile pipeline cost the SpGEMM model charges: here
 *  one per (strip, output tile column) — the strip's 8 x 32
 *  accumulator region is staged in and out once, since the strip
 *  covers all of K in a single pass (no K chunking to spill
 *  between). */
constexpr int64_t kTileOverheadCycles = 4;

/** B quantized once through its spec into a contiguous k x n
 *  buffer, so every functional path multiplies the identical lane
 *  values. Element-wise, hence worker-independent. */
std::vector<float>
quantizeB(const Matrix<float> &b, const QuantSpec &spec_b,
          int num_workers)
{
    const int64_t k = b.rows(), n = b.cols();
    std::vector<float> bq(static_cast<size_t>(k) * n);
    const float *src = b.data().data();
    float *dst = bq.data();
    auto run_row = [&](int64_t r) {
        const size_t base = static_cast<size_t>(r) * n;
        for (int64_t c = 0; c < n; ++c)
            dst[base + c] = spec_b.apply(src[base + c]);
    };
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, k, max_workers, run_row);
    return bq;
}

} // namespace

SpmmDevice::SpmmDevice(const GpuConfig &cfg)
    : cfg_(cfg), memory_model_(cfg)
{
}

Matrix<float>
SpmmDevice::multiplyNarrow(const NarrowTileMatrix &a,
                           const Matrix<float> &b,
                           const QuantSpec &spec_b,
                           const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.cols() == b.rows(), "SpMM dims: ", a.rows(), "x",
                a.cols(), " * ", b.rows(), "x", b.cols());
    const QuantSpec &spec_a = a.spec();
    DSTC_ASSERT(spec_a.dtype == spec_b.dtype,
                "operand datatypes must match");
    const int64_t m = a.rows(), n = b.cols();
    const std::vector<float> bq =
        quantizeB(b, spec_b, options.num_workers);
    Matrix<float> d(static_cast<int>(m), static_cast<int>(n));
    float *d_base = d.data().data();

    // Each strip owns a disjoint 8-row region of D, so the strip loop
    // partitions over workers with bitwise-identical results: within
    // a strip, every output cell accumulates its products in
    // ascending-column (= ascending-k) order.
    auto run_strip = [&](int64_t sl) {
        const int s = static_cast<int>(sl);
        const int64_t r0 =
            static_cast<int64_t>(s) * NarrowTileMatrix::kStripRows;
        int64_t v = a.stripOffset(s);
        const int wps = a.wordsPerStrip();
        for (int w = 0; w < wps; ++w) {
            uint64_t word = a.stripWord(s, w);
            const int64_t c_base = static_cast<int64_t>(w) << 6;
            while (word) {
                const int64_t c = c_base + std::countr_zero(word);
                word &= word - 1;
                uint8_t mask = a.vectorMask(v);
                const float *vals = a.vectorValuesQuant(v).data();
                const float *brow =
                    bq.data() + static_cast<size_t>(c) * n;
                while (mask) {
                    const int j =
                        std::countr_zero(static_cast<uint32_t>(mask));
                    mask = static_cast<uint8_t>(mask & (mask - 1));
                    const float x = *vals++;
                    float *drow =
                        d_base + static_cast<size_t>(r0 + j) * n;
                    for (int64_t cn = 0; cn < n; ++cn)
                        drow[cn] += x * brow[cn];
                }
                ++v;
            }
        }
    };
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    parallelFor(pool, a.numStrips(), max_workers, run_strip);

    // Integer datatypes accumulate codes; one deferred physical scale
    // per output element, after all accumulation.
    const float out_scale = QuantSpec::outputScale(spec_a, spec_b);
    if (out_scale != 1.0f)
        for (float &x : d.data())
            x *= out_scale;
    return d;
}

Matrix<float>
SpmmDevice::multiplyWide(const TwoLevelBitmapMatrix &a,
                         const Matrix<float> &b,
                         const QuantSpec &spec_b,
                         const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.cols() == b.rows(), "SpMM dims: ", a.rows(), "x",
                a.cols(), " * ", b.rows(), "x", b.cols());
    const QuantSpec &spec_a = a.spec();
    DSTC_ASSERT(spec_a.dtype == spec_b.dtype,
                "operand datatypes must match");
    const int64_t m = a.rows(), n = b.cols();
    const int tiles_k = a.numTileCols();
    const std::vector<float> bq =
        quantizeB(b, spec_b, options.num_workers);
    Matrix<float> d(static_cast<int>(m), static_cast<int>(n));
    float *d_base = d.data().data();

    // Tile rows own disjoint 32-row regions of D. Within one, k runs
    // ascending (tk-major, then the tile's column lines), and each
    // line's values come ascending row — the exact accumulation order
    // of the narrow path, hence bitwise-equal output.
    auto run_tile_row = [&](int64_t til) {
        const int ti = static_cast<int>(til);
        const int64_t r0 = static_cast<int64_t>(ti) * a.tileRows();
        int positions[64];
        for (int tk = 0; tk < tiles_k; ++tk) {
            if (!a.tileNonEmpty(ti, tk))
                continue;
            const BitmapMatrix &tile = a.tile(ti, tk);
            const int64_t k0 = static_cast<int64_t>(tk) * a.tileCols();
            const int span = tile.cols();
            for (int line = 0; line < span; ++line) {
                const int cnt = tile.linePositionsInto(
                    line, 0, tile.rows(), positions);
                if (cnt == 0)
                    continue;
                const float *vals = tile.lineValuesQuant(line).data();
                const float *brow =
                    bq.data() + static_cast<size_t>(k0 + line) * n;
                for (int i = 0; i < cnt; ++i) {
                    const float x = vals[i];
                    float *drow =
                        d_base +
                        static_cast<size_t>(r0 + positions[i]) * n;
                    for (int64_t cn = 0; cn < n; ++cn)
                        drow[cn] += x * brow[cn];
                }
            }
        }
    };
    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(options.num_workers, &max_workers);
    parallelFor(pool, a.numTileRows(), max_workers, run_tile_row);

    const float out_scale = QuantSpec::outputScale(spec_a, spec_b);
    if (out_scale != 1.0f)
        for (float &x : d.data())
            x *= out_scale;
    return d;
}

KernelStats
SpmmDevice::timeNarrowFromProfile(const SparsityProfile &a, int64_t n,
                                  const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.tile() == NarrowTileMatrix::kStripRows,
                "narrow SpMM profiles use strip (tile = 8) "
                "granularity");
    const int n_strips = a.groups();
    const int64_t m = a.extent(), k = a.k();
    const int tiles_n = static_cast<int>(ceilDiv<int64_t>(n, 32));
    const int64_t wps = ceilDiv<int64_t>(k, 64);
    const SpWmmaShape shape;
    MergeCostModel merge_model(cfg_.accum_banks,
                               cfg_.operand_collector);

    KernelStats stats;
    stats.name = "dstc_spmm_narrow";

    // One schedulable unit per (strip, output tile column): the
    // strip walks its level-1 words once (POPC/ctz scan on the
    // scalar pipe), issues one A-chunk per non-empty 8x1 vector
    // against the tile column's B chunks, and merges nnz * n_cols
    // scattered accumulations. Strips with no vectors are skipped
    // whole — the narrow counterpart of the warp-bitmap skip.
    std::vector<int64_t> work;
    work.reserve(static_cast<size_t>(n_strips) * tiles_n);
    int64_t total_vectors = 0, total_nnz = 0;
    for (int s = 0; s < n_strips; ++s) {
        int64_t nv = 0, nnz = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
            const int c = a.count(s, kk);
            nv += c > 0;
            nnz += c;
        }
        total_vectors += nv;
        total_nnz += nnz;
        for (int tj = 0; tj < tiles_n; ++tj) {
            if (nv == 0) {
                ++stats.warp_tiles_skipped;
                continue;
            }
            ++stats.warp_tiles;
            const int n_cols = static_cast<int>(
                std::min<int64_t>(32, n - static_cast<int64_t>(tj) *
                                              32));
            const int b_chunks = ceilDiv(n_cols, shape.b_chunk);
            const int64_t issued = nv * b_chunks;
            stats.mix.popc += wps;
            stats.mix.ohmma_issued += issued;
            stats.mix.ohmma_skipped += (k - nv) * b_chunks;
            const int64_t issue_cycles = issued;
            const int64_t scalar_cycles = wps + 2;
            const int64_t accesses = nnz * n_cols;
            const int64_t merge_cycles = static_cast<int64_t>(
                merge_model.tileCycles(accesses, issued));
            stats.merge_cycles += merge_cycles;
            work.push_back(std::max({issue_cycles, merge_cycles,
                                     scalar_cycles}) +
                           kTileOverheadCycles);
        }
    }

    const int64_t makespan = lptMakespan(work, cfg_.totalSubcores());
    stats.compute_us =
        static_cast<double>(makespan) /
        (cfg_.clock_ghz * 1e3 * cfg_.sparse_issue_efficiency *
         dataTypeComputeScale(options.dtype));

    const double bytes_a =
        static_cast<double>(NarrowTileMatrix::narrowEncodedBytes(
            m, k, total_vectors, total_nnz, options.dtype));
    const double bytes_b =
        static_cast<double>(k) * n * dataTypeValueBytes(options.dtype);
    const double bytes_d =
        static_cast<double>(m) * n * dataTypeOutputBytes(options.dtype);
    stats.dram_bytes = memory_model_.gemmTrafficBytes(
        m, n, bytes_a, bytes_b, bytes_d);
    stats.memory_us = memory_model_.dramTimeUs(stats.dram_bytes);
    stats.launch_us = cfg_.kernel_launch_us;
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

KernelStats
SpmmDevice::timeWideFromProfile(const SparsityProfile &a, int64_t n,
                                const SpGemmOptions &options) const
{
    DSTC_ASSERT(a.tile() == kWarpTile,
                "wide SpMM profiles use warp-tile granularity");
    const int64_t k = a.k();
    const SparsityProfile b_dense =
        SparsityProfile::denseA(n, k, kWarpTile);
    SpGemmDevice device(cfg_);
    KernelStats stats = device.timeFromProfiles(a, b_dense, options);
    stats.name = "dstc_spmm_wide";

    // Override the memory side: B is a raw dense operand streamed at
    // its lane width, not a two-level encoding (no bitmap overhead,
    // no tile bookkeeping).
    const int64_t m_pad =
        static_cast<int64_t>(a.groups()) * kWarpTile;
    const int64_t n_pad =
        static_cast<int64_t>(b_dense.groups()) * kWarpTile;
    const double bytes_a = static_cast<double>(
        a.encodedBytes(options.tile_k, options.dtype));
    const double bytes_b = static_cast<double>(k) * n *
                           dataTypeValueBytes(options.dtype);
    const double bytes_d = static_cast<double>(m_pad) * n_pad *
                           dataTypeOutputBytes(options.dtype);
    stats.dram_bytes = memory_model_.gemmTrafficBytes(
        m_pad, n_pad, bytes_a, bytes_b, bytes_d);
    stats.memory_us = memory_model_.dramTimeUs(stats.dram_bytes);
    stats.bound = stats.compute_us > stats.memory_us ? Bound::Compute
                                                     : Bound::Memory;
    return stats;
}

} // namespace dstc
