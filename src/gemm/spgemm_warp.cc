#include "gemm/spgemm_warp.h"

#include "common/bitutil.h"
#include "common/logging.h"
#include "gemm/lane_step.h"

namespace dstc {

static_assert(LaneTile::kDim == kLanes,
              "a lane tile row is one set of OHMMA lanes");

namespace {

void
checkTilePair(const BitmapMatrix &a_tile, const BitmapMatrix &b_tile,
              const SpWmmaShape &shape)
{
    DSTC_ASSERT(a_tile.major() == Major::Col,
                "A tile must be column-major encoded");
    DSTC_ASSERT(b_tile.major() == Major::Row,
                "B tile must be row-major encoded");
    DSTC_ASSERT(a_tile.cols() == b_tile.rows(), "k mismatch: ",
                a_tile.cols(), " vs ", b_tile.rows());
    DSTC_ASSERT(a_tile.rows() <= shape.m && b_tile.cols() <= shape.n,
                "warp tile exceeds SpWMMA shape");
}

} // namespace

SpGemmWarpEngine::SpGemmWarpEngine(const GpuConfig &cfg)
    : cfg_(cfg),
      merge_model_(cfg.accum_banks, cfg.operand_collector)
{
}

WarpTileResult
SpGemmWarpEngine::computeTile(const BitmapMatrix &a_tile,
                              const BitmapMatrix &b_tile, float *accum,
                              int ld, bool detailed_merge,
                              WarpScratch &scratch) const
{
    checkTilePair(a_tile, b_tile, shape_);
    const int m = a_tile.rows();
    const int n = b_tile.cols();

    if (accum) {
        // A one-tile strip: the denser tile goes on the lanes, and
        // the (m x n) region is staged in the lane tile (row stride
        // 32, transposed with A on the lanes) so the lane loop runs
        // on a fixed stride.
        const bool a_lanes = aOnLanes(a_tile.nnz(), b_tile.nnz(), m, n);
        const BitmapMatrix *lane = a_lanes ? &a_tile : &b_tile;
        const BitmapMatrix *other = a_lanes ? &b_tile : &a_tile;
        scratch.strip.expand({&lane, 1}, a_tile.cols());
        loadLaneTile(accum, ld, m, n, a_lanes, scratch.stage.v);
        stripKernel()(scratch.stage.v, scratch.strip, &other);
        storeLaneTile(scratch.stage.v, m, n, a_lanes, accum, ld);
    }

    WarpTileResult result;
    if (detailed_merge) {
        scratch.reserveTile(m, n);
        scratch.trace.instr_addrs.clear();
    }
    forEachLiveStep(a_tile, b_tile, [&](int step) {
        // The hardware POPCs the A-column / B-row bitmaps (Fig. 15);
        // the instruction mix of one SpWMMA set is then arithmetic:
        // two POPCs, one BOHMMA, and the predication of the 8 OHMMAs.
        const int popc_a = a_tile.lineNnz(step);
        const int popc_b = b_tile.lineNnz(step);
        result.mix.popc += 2;
        ++result.mix.bohmma;
        const int enabled = enabledOhmmas(popc_a, popc_b, shape_);
        result.mix.ohmma_issued += enabled;
        result.mix.ohmma_skipped += shape_.ohmmasPerSet() - enabled;
        const int64_t products = static_cast<int64_t>(popc_a) * popc_b;
        result.macs += products;
        result.merge_accesses += products;
        if (!detailed_merge)
            return;

        // The bank simulator consumes one address list per OHMMA
        // chunk pair, in issue order (tile-local addresses).
        a_tile.linePositionsInto(step, 0, m, scratch.pos_a.data());
        b_tile.linePositionsInto(step, 0, n, scratch.pos_b.data());
        for (int ac = 0; ac < ceilDiv(popc_a, shape_.a_chunk); ++ac) {
            const int a_lo = ac * shape_.a_chunk;
            const int a_hi = std::min(popc_a, a_lo + shape_.a_chunk);
            for (int bc = 0; bc < ceilDiv(popc_b, shape_.b_chunk);
                 ++bc) {
                const int b_lo = bc * shape_.b_chunk;
                const int b_hi =
                    std::min(popc_b, b_lo + shape_.b_chunk);
                std::vector<int> addrs;
                addrs.reserve(static_cast<size_t>(a_hi - a_lo) *
                              (b_hi - b_lo));
                for (int ia = a_lo; ia < a_hi; ++ia)
                    for (int ib = b_lo; ib < b_hi; ++ib)
                        addrs.push_back(scratch.pos_a[ia] * n +
                                        scratch.pos_b[ib]);
                scratch.trace.instr_addrs.push_back(std::move(addrs));
            }
        }
    });

    result.issue_cycles = result.mix.tensorCycles();
    // Scalar pipe: one slot per surviving (non-compacted) k-step for
    // the POPC/predicate work, plus the per-tile occupancy-bitmap
    // AND that drives the k-compaction.
    result.scalar_cycles = result.mix.bohmma + 2;
    if (detailed_merge) {
        AccumBufferSim sim(cfg_.accum_banks, cfg_.operand_collector,
                           cfg_.collector_window);
        result.merge_cycles = sim.simulateSparse(scratch.trace);
    } else {
        result.merge_cycles = static_cast<int64_t>(
            merge_model_.tileCycles(result.merge_accesses,
                                    result.mix.ohmma_issued));
    }
    return result;
}

WarpTileResult
SpGemmWarpEngine::computeTile(const BitmapMatrix &a_tile,
                              const BitmapMatrix &b_tile,
                              Matrix<float> *accum,
                              bool detailed_merge) const
{
    if (accum) {
        DSTC_ASSERT(accum->rows() == a_tile.rows() &&
                    accum->cols() == b_tile.cols());
    }
    thread_local WarpScratch scratch;
    float *base = accum ? accum->data().data() : nullptr;
    const int ld = accum ? accum->cols() : 0;
    return computeTile(a_tile, b_tile, base, ld, detailed_merge,
                       scratch);
}

} // namespace dstc
