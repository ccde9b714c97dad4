/**
 * @file
 * Equivalence gate of the SpGEMM timing model: for every shape,
 * option and worker count, SpGemmDevice::timeFromProfiles must
 * reproduce its per-tile scalar twin (timeFromProfilesScalar, in the
 * test-only reference library) field by field, doubles by their bits.
 * Seeded random profiles cover ragged M/N/K, every tile_k the
 * library uses, both skip modes, every datatype, both write-back
 * modes and both merge models, plus all-empty and all-dense operands.
 */
#include "gemm/spgemm_device.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "common/rng.h"

namespace dstc {
namespace {

/** Every KernelStats field must agree, doubles bit for bit. */
void
expectBitIdentical(const KernelStats &fast, const KernelStats &ref,
                   const std::string &label)
{
    EXPECT_EQ(fast.name, ref.name) << label;
    EXPECT_TRUE(fast.mix == ref.mix) << label;
    EXPECT_EQ(fast.warp_tiles, ref.warp_tiles) << label;
    EXPECT_EQ(fast.warp_tiles_skipped, ref.warp_tiles_skipped) << label;
    EXPECT_EQ(fast.merge_cycles, ref.merge_cycles) << label;
    EXPECT_EQ(std::bit_cast<uint64_t>(fast.compute_us),
              std::bit_cast<uint64_t>(ref.compute_us))
        << label << " compute " << fast.compute_us << " vs "
        << ref.compute_us;
    EXPECT_EQ(std::bit_cast<uint64_t>(fast.memory_us),
              std::bit_cast<uint64_t>(ref.memory_us))
        << label << " memory " << fast.memory_us << " vs "
        << ref.memory_us;
    EXPECT_EQ(std::bit_cast<uint64_t>(fast.dram_bytes),
              std::bit_cast<uint64_t>(ref.dram_bytes))
        << label << " dram " << fast.dram_bytes << " vs "
        << ref.dram_bytes;
    EXPECT_EQ(std::bit_cast<uint64_t>(fast.launch_us),
              std::bit_cast<uint64_t>(ref.launch_us))
        << label;
    EXPECT_EQ(fast.bound, ref.bound) << label;
}

enum class Fill { Empty, Dense, Uniform, Clustered, Extremes };

const char *
fillName(Fill fill)
{
    switch (fill) {
      case Fill::Empty: return "empty";
      case Fill::Dense: return "dense";
      case Fill::Uniform: return "uniform";
      case Fill::Clustered: return "clustered";
      case Fill::Extremes: return "extremes";
    }
    return "?";
}

/** A profile of @p extent lines' worth of rows (or columns) by @p k. */
SparsityProfile
makeProfile(Fill fill, int64_t extent, int64_t k, Rng &rng)
{
    switch (fill) {
      case Fill::Empty:
        return SparsityProfile(
            static_cast<int>(ceilDiv<int64_t>(extent, kWarpTile)), k,
            kWarpTile, extent);
      case Fill::Dense:
        return SparsityProfile::denseA(extent, k, kWarpTile);
      case Fill::Uniform:
        return SparsityProfile::randomA(extent, k, kWarpTile,
                                        0.05 + 0.9 * rng.uniform(), 1.0,
                                        rng);
      case Fill::Clustered:
        // Whole warp tiles go empty: the two-level skip fires.
        return SparsityProfile::randomA(extent, k, kWarpTile, 0.1, 6.0,
                                        rng);
      case Fill::Extremes:
        break;
    }
    // Lines that are empty, full or one short of a chunk edge, so the
    // per-popcount tables are read at both ends.
    SparsityProfile p = SparsityProfile::denseA(extent, k, kWarpTile);
    for (int g = 0; g < p.groups(); ++g) {
        const int span = p.groupSpan(g);
        for (int64_t kk = 0; kk < k; ++kk) {
            const int pick = static_cast<int>(rng.uniformInt(4));
            const int value = pick == 0   ? 0
                              : pick == 1 ? span
                              : pick == 2 ? std::min(span, 9)
                                          : static_cast<int>(rng.uniformInt(
                                                span + 1));
            p.setCount(g, kk, value);
        }
    }
    return p;
}

TEST(SpGemmTiming, MatchesScalarTwinBitForBit)
{
    const Fill kFills[] = {Fill::Empty, Fill::Dense, Fill::Uniform,
                           Fill::Clustered, Fill::Extremes};
    Rng rng(3201);
    int skipping = 0, sparse_write_back = 0;
    for (int trial = 0; trial < 25; ++trial) {
        // Ragged on every axis: M, N off the warp tile, K off every
        // tile_k.
        const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(150));
        const int64_t n = 1 + static_cast<int64_t>(rng.uniformInt(150));
        const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(200));
        const Fill fill_a = kFills[trial % 5];
        const Fill fill_b = kFills[(trial / 5 + trial) % 5];
        const SparsityProfile a = makeProfile(fill_a, m, k, rng);
        const SparsityProfile b = makeProfile(fill_b, n, k, rng);
        GpuConfig cfg = GpuConfig::v100();
        cfg.operand_collector = trial % 3 != 2;
        const SpGemmDevice device(cfg);
        for (int tile_k : {16, 32, 64}) {
            for (bool two_level : {true, false}) {
                for (const auto &dtype : kDataTypes) {
                    for (bool sparse_output : {false, true}) {
                        SpGemmOptions options;
                        options.tile_k = tile_k;
                        options.two_level = two_level;
                        options.dtype = dtype.value;
                        options.sparse_output = sparse_output;
                        options.num_workers = 1;
                        const KernelStats ref =
                            device.timeFromProfilesScalar(a, b, options);
                        skipping += ref.warp_tiles_skipped > 0;
                        sparse_write_back += sparse_output;
                        for (int workers : {1, 4}) {
                            options.num_workers = workers;
                            const std::string label =
                                std::string(fillName(fill_a)) + " x " +
                                fillName(fill_b) + " " +
                                std::to_string(m) + "x" +
                                std::to_string(n) + "x" +
                                std::to_string(k) +
                                " tile_k=" + std::to_string(tile_k) +
                                " two_level=" +
                                std::to_string(two_level) + " " +
                                dtype.token + " sparse_output=" +
                                std::to_string(sparse_output) +
                                " collector=" +
                                std::to_string(cfg.operand_collector) +
                                " workers=" + std::to_string(workers);
                            expectBitIdentical(
                                device.timeFromProfiles(a, b, options),
                                ref, label);
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(skipping, 0);
    EXPECT_GT(sparse_write_back, 0);
}

TEST(SpGemmTiming, WideShapesMatchAtEveryBlockSplit)
{
    // Enough k-steps that the pooled runs split the output tiles into
    // many blocks, and a sparse write-back that beats the dense one,
    // so the per-tile output estimate reaches dram_bytes.
    Rng rng(3202);
    const SpGemmDevice device(GpuConfig::v100());
    const SparsityProfile a =
        SparsityProfile::randomA(1000, 400, kWarpTile, 0.02, 1.0, rng);
    const SparsityProfile b =
        SparsityProfile::randomA(990, 400, kWarpTile, 0.03, 3.0, rng);
    for (int tile_k : {16, 64}) {
        for (bool two_level : {true, false}) {
            SpGemmOptions options;
            options.tile_k = tile_k;
            options.two_level = two_level;
            options.sparse_output = true;
            options.num_workers = 1;
            const KernelStats ref =
                device.timeFromProfilesScalar(a, b, options);
            SpGemmOptions dense_out = options;
            dense_out.sparse_output = false;
            EXPECT_LT(ref.dram_bytes,
                      device.timeFromProfilesScalar(a, b, dense_out)
                          .dram_bytes);
            for (int workers : {1, 2, 3, 4, 0}) {
                options.num_workers = workers;
                expectBitIdentical(
                    device.timeFromProfiles(a, b, options), ref,
                    "tile_k=" + std::to_string(tile_k) + " two_level=" +
                        std::to_string(two_level) +
                        " workers=" + std::to_string(workers));
            }
        }
    }
}

} // namespace
} // namespace dstc
