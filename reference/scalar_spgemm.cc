/**
 * @file
 * Scalar reference of the warp-tile kernel, compiled into the
 * test-only `dstc_reference` library (the shipped `dstc` library
 * carries the lane-strip kernel alone). The equivalence tests and
 * bench/micro_spgemm link this target to keep the bitwise pin:
 * computeTile == computeTileScalar for every tile and datatype.
 */
#include "gemm/spgemm_warp.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"
#include "isa/program_builder.h"

namespace dstc {

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

WarpTileResult
SpGemmWarpEngine::computeTileScalar(const BitmapMatrix &a_tile,
                                    const BitmapMatrix &b_tile,
                                    Matrix<float> *accum,
                                    bool detailed_merge,
                                    const QuantSpec &spec_a,
                                    const QuantSpec &spec_b) const
{
    checkTilePair(a_tile, b_tile, shape_);
    const int m = a_tile.rows();
    const int n = b_tile.cols();
    const int k = a_tile.cols();
    if (accum) {
        DSTC_ASSERT(accum->rows() == m && accum->cols() == n);
    }

    WarpProgram prog;
    MergeTrace trace;
    WarpTileResult result;

    for (int step = 0; step < k; ++step) {
        // The hardware POPCs the A-column / B-row bitmaps (Fig. 15).
        const int popc_a = a_tile.lineNnz(step);
        const int popc_b = b_tile.lineNnz(step);
        buildSpWmmaSet(prog, step, popc_a, popc_b, shape_);
        if (popc_a == 0 || popc_b == 0)
            continue;

        const auto pos_a = a_tile.linePositions(step, 0, m);
        const auto pos_b = b_tile.linePositions(step, 0, n);
        const auto val_a = a_tile.lineValues(step);
        const auto val_b = b_tile.lineValues(step);

        // multiply-value on the condensed operands: each OHMMA covers
        // an (8 x 16) chunk pair; non-padding products scatter into
        // the tile at the positions the multiply-bitmap recovers.
        // Quantization happens here, per consumed value — the lane
        // path reads the pre-quantized encode-time lane instead, and
        // the pin proves the two agree bit for bit.
        for (int ac = 0; ac < ceilDiv(popc_a, shape_.a_chunk); ++ac) {
            for (int bc = 0; bc < ceilDiv(popc_b, shape_.b_chunk);
                 ++bc) {
                std::vector<int> addrs;
                const int a_lo = ac * shape_.a_chunk;
                const int a_hi =
                    std::min(popc_a, a_lo + shape_.a_chunk);
                const int b_lo = bc * shape_.b_chunk;
                const int b_hi =
                    std::min(popc_b, b_lo + shape_.b_chunk);
                for (int ia = a_lo; ia < a_hi; ++ia) {
                    const float av = spec_a.apply(val_a[ia]);
                    for (int ib = b_lo; ib < b_hi; ++ib) {
                        if (accum) {
                            accum->at(pos_a[ia], pos_b[ib]) +=
                                av * spec_b.apply(val_b[ib]);
                        }
                        addrs.push_back(pos_a[ia] * n + pos_b[ib]);
                        ++result.macs;
                    }
                }
                result.merge_accesses +=
                    static_cast<int64_t>(addrs.size());
                trace.instr_addrs.push_back(std::move(addrs));
            }
        }
    }

    result.mix = prog.mix();
    result.issue_cycles = result.mix.tensorCycles();
    // Scalar pipe: one slot per surviving (non-compacted) k-step for
    // the POPC/predicate work, plus the per-tile occupancy-bitmap
    // AND that drives the k-compaction.
    result.scalar_cycles = result.mix.bohmma + 2;
    if (detailed_merge) {
        AccumBufferSim sim(cfg_.accum_banks, cfg_.operand_collector,
                           cfg_.collector_window);
        result.merge_cycles = sim.simulateSparse(trace);
    } else {
        result.merge_cycles = static_cast<int64_t>(
            merge_model_.tileCycles(result.merge_accesses,
                                    result.mix.ohmma_issued));
    }
    return result;
}

} // namespace dstc
