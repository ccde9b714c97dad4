#include "timing/memory_model.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"

namespace dstc {

double
MemoryModel::dramTimeUs(double bytes) const
{
    DSTC_ASSERT(bytes >= 0.0);
    return bytes / cfg_.dramBytesPerUs();
}

double
MemoryModel::gemmTrafficBytes(int64_t m, int64_t n, double bytes_a,
                              double bytes_b, double bytes_d) const
{
    constexpr int64_t block = 128;
    DSTC_ASSERT(m > 0 && n > 0);
    // A's block-row stripe is needed by every block column of D (and
    // vice versa for B). When a stripe fits in its share of the L2
    // it stays resident across the sweep and is read from DRAM only
    // once (plus a small conflict residue); otherwise the re-reads
    // are damped by the L2 hit rate.
    const double stripes_n =
        static_cast<double>(ceilDiv<int64_t>(n, block));
    const double stripes_m =
        static_cast<double>(ceilDiv<int64_t>(m, block));
    const double miss = 1.0 - cfg_.l2_hit_rate;
    const double residency_budget = cfg_.l2_bytes / 3.0;

    auto operand_reads = [&](double bytes, double own_stripes,
                             double sweep_stripes) {
        const double stripe = bytes / std::max(1.0, own_stripes);
        if (stripe <= residency_budget)
            return bytes * 1.15; // resident: one pass + residue
        return bytes * (1.0 + (sweep_stripes - 1.0) * miss);
    };
    return operand_reads(bytes_a, stripes_m, stripes_n) +
           operand_reads(bytes_b, stripes_n, stripes_m) + bytes_d;
}

double
MemoryModel::convTrafficBytes(double input_bytes, double weight_bytes,
                              double output_bytes, double inflation,
                              bool explicit_im2col) const
{
    DSTC_ASSERT(inflation >= 1.0);
    if (explicit_im2col) {
        // im2col kernel: read input, write lowered matrix; GEMM:
        // read lowered matrix and weights, write output.
        double lowered = input_bytes * inflation;
        return input_bytes + 2.0 * lowered + weight_bytes + output_bytes;
    }
    // Implicit: the address transform runs in registers/shared
    // memory; the 1.15 covers halo re-reads that miss in L1.
    return input_bytes * 1.15 + weight_bytes + output_bytes;
}

} // namespace dstc
