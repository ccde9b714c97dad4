#include "gemm/spgemm_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "core/thread_pool.h"
#include "gemm/lane_step.h"
#include "model/sparsity_gen.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

class SpGemmDeviceTest : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = GpuConfig::v100();
    SpGemmDevice device_{cfg_};
};

/** Two KernelStats must agree bit-for-bit. */
void
expectIdenticalStats(const KernelStats &a, const KernelStats &b)
{
    EXPECT_EQ(a.mix.ohmma_issued, b.mix.ohmma_issued);
    EXPECT_EQ(a.mix.ohmma_skipped, b.mix.ohmma_skipped);
    EXPECT_EQ(a.mix.bohmma, b.mix.bohmma);
    EXPECT_EQ(a.mix.popc, b.mix.popc);
    EXPECT_EQ(a.warp_tiles, b.warp_tiles);
    EXPECT_EQ(a.warp_tiles_skipped, b.warp_tiles_skipped);
    EXPECT_EQ(a.merge_cycles, b.merge_cycles);
    EXPECT_DOUBLE_EQ(a.compute_us, b.compute_us);
    EXPECT_DOUBLE_EQ(a.memory_us, b.memory_us);
    EXPECT_DOUBLE_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_DOUBLE_EQ(a.timeUs(), b.timeUs());
}

TEST_F(SpGemmDeviceTest, FunctionalMatchesReference)
{
    Rng rng(121);
    Matrix<float> a = randomSparseMatrix(96, 64, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(64, 96, 0.7, rng);
    SpGemmResult r = device_.multiply(a, b);
    EXPECT_LT(maxAbsDiff(r.d, refGemmFp16(a, b)), 1e-5);
}

TEST_F(SpGemmDeviceTest, NonTileAlignedShapes)
{
    Rng rng(122);
    Matrix<float> a = randomSparseMatrix(45, 50, 0.5, rng);
    Matrix<float> b = randomSparseMatrix(50, 39, 0.5, rng);
    SpGemmResult r = device_.multiply(a, b);
    EXPECT_LT(maxAbsDiff(r.d, refGemmFp16(a, b)), 1e-5);
}

TEST_F(SpGemmDeviceTest, TwoLevelSkipsEmptyTiles)
{
    // Clustered inputs leave many warp tiles empty.
    Rng rng(123);
    Matrix<float> a = clusteredSparseMatrix(128, 128, 0.95, 32, 16, rng);
    Matrix<float> b = clusteredSparseMatrix(128, 128, 0.95, 32, 16, rng);

    SpGemmOptions with_skip;
    with_skip.functional = false;
    SpGemmOptions without_skip = with_skip;
    without_skip.two_level = false;

    KernelStats skipped = device_.multiply(a, b, with_skip).stats;
    KernelStats unskipped = device_.multiply(a, b, without_skip).stats;
    EXPECT_GT(skipped.warp_tiles_skipped, 0);
    EXPECT_EQ(unskipped.warp_tiles_skipped, 0);
    EXPECT_LE(skipped.warp_tiles, unskipped.warp_tiles);
    // Skipping never hurts and the result is the same computation.
    EXPECT_LE(skipped.compute_us, unskipped.compute_us + 1e-9);
}

TEST_F(SpGemmDeviceTest, TwoLevelSkipDoesNotChangeResult)
{
    Rng rng(124);
    Matrix<float> a = clusteredSparseMatrix(96, 96, 0.9, 32, 8, rng);
    Matrix<float> b = clusteredSparseMatrix(96, 96, 0.9, 32, 8, rng);
    SpGemmOptions no_skip;
    no_skip.two_level = false;
    EXPECT_LT(maxAbsDiff(device_.multiply(a, b).d,
                         device_.multiply(a, b, no_skip).d),
              1e-9);
}

TEST_F(SpGemmDeviceTest, SparserIsFaster)
{
    Rng rng(125);
    double prev = 1e30;
    for (double sparsity : {0.0, 0.5, 0.9, 0.99}) {
        Matrix<float> a = randomSparseMatrix(256, 256, sparsity, rng);
        Matrix<float> b = randomSparseMatrix(256, 256, sparsity, rng);
        SpGemmOptions opts;
        opts.functional = false;
        KernelStats stats = device_.multiply(a, b, opts).stats;
        EXPECT_LT(stats.compute_us, prev);
        prev = stats.compute_us;
    }
}

TEST_F(SpGemmDeviceTest, ProfilePathMatchesFunctionalPath)
{
    Rng rng(126);
    Matrix<float> a = randomSparseMatrix(128, 96, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(96, 128, 0.5, rng);

    SpGemmOptions opts;
    opts.functional = false;
    KernelStats full = device_.multiply(a, b, opts).stats;

    KernelStats profiled = device_.timeFromProfiles(
        SparsityProfile::fromMatrixA(a, 32),
        SparsityProfile::fromMatrixB(b, 32), opts);

    // One SpGEMM timing model: the encoded entry point reports
    // timeFromProfiles of its operands' profiles.
    expectIdenticalStats(full, profiled);
}

TEST_F(SpGemmDeviceTest, StatsBreakdownIsConsistent)
{
    Rng rng(127);
    Matrix<float> a = randomSparseMatrix(64, 64, 0.5, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.5, rng);
    KernelStats stats = device_.multiply(a, b).stats;
    EXPECT_GT(stats.compute_us, 0.0);
    EXPECT_GT(stats.memory_us, 0.0);
    EXPECT_GT(stats.dram_bytes, 0.0);
    EXPECT_GE(stats.timeUs(),
              std::max(stats.compute_us, stats.memory_us));
    EXPECT_EQ(stats.warp_tiles + stats.warp_tiles_skipped, 2 * 2 * 2);
}

TEST_F(SpGemmDeviceTest, KIsAccumulatedAcrossChunks)
{
    // K spanning several 32-chunks exercises the k-loop seams.
    Rng rng(128);
    Matrix<float> a = randomSparseMatrix(32, 200, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(200, 32, 0.6, rng);
    SpGemmResult r = device_.multiply(a, b);
    EXPECT_LT(maxAbsDiff(r.d, refGemmFp16(a, b)), 1e-5);
}

TEST_F(SpGemmDeviceTest, EncodedEntryPointMatchesDenseEntryPoint)
{
    // Encode-once / multiply-many path: identical results and
    // identical statistics to the convenience overload.
    Rng rng(130);
    Matrix<float> a = randomSparseMatrix(80, 70, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(70, 90, 0.6, rng);
    SpGemmOptions opts;
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);

    SpGemmResult via_dense = device_.multiply(a, b, opts);
    SpGemmResult via_encoded =
        device_.multiplyEncoded(a_enc, b_enc, opts);
    EXPECT_EQ(maxAbsDiff(via_dense.d, via_encoded.d), 0.0);
    EXPECT_EQ(via_dense.stats.mix.ohmma_issued,
              via_encoded.stats.mix.ohmma_issued);
    EXPECT_DOUBLE_EQ(via_dense.stats.timeUs(),
                     via_encoded.stats.timeUs());
    // And the encoded operands can be reused.
    SpGemmResult again = device_.multiplyEncoded(a_enc, b_enc, opts);
    EXPECT_EQ(maxAbsDiff(again.d, via_encoded.d), 0.0);
}

TEST_F(SpGemmDeviceTest, ZeroMatrixProducesZero)
{
    Matrix<float> a(64, 64);
    Rng rng(129);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.3, rng);
    SpGemmResult r = device_.multiply(a, b);
    EXPECT_EQ(r.d.nnz(), 0);
    EXPECT_EQ(r.stats.mix.ohmma_issued, 0);
    EXPECT_EQ(r.stats.warp_tiles, 0);
}

struct DeviceSweepParam
{
    int m, k, n;
    double sa, sb;
};

class SpGemmDeviceSweep
    : public ::testing::TestWithParam<DeviceSweepParam>
{
};

TEST_P(SpGemmDeviceSweep, FunctionalCorrectness)
{
    const auto &p = GetParam();
    Rng rng(static_cast<uint64_t>(p.m * 31 + p.k * 17 + p.n));
    GpuConfig cfg = GpuConfig::v100();
    SpGemmDevice device(cfg);
    Matrix<float> a = randomSparseMatrix(p.m, p.k, p.sa, rng);
    Matrix<float> b = randomSparseMatrix(p.k, p.n, p.sb, rng);
    SpGemmResult r = device.multiply(a, b);
    EXPECT_LT(maxAbsDiff(r.d, refGemmFp16(a, b)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpGemmDeviceSweep,
    ::testing::Values(DeviceSweepParam{32, 32, 32, 0.5, 0.5},
                      DeviceSweepParam{64, 32, 96, 0.0, 0.9},
                      DeviceSweepParam{33, 65, 31, 0.7, 0.2},
                      DeviceSweepParam{128, 128, 64, 0.95, 0.95},
                      DeviceSweepParam{16, 16, 16, 0.3, 0.3},
                      DeviceSweepParam{1, 100, 1, 0.5, 0.5},
                      DeviceSweepParam{100, 1, 100, 0.2, 0.8}));

/**
 * The parallel tile loop must be bitwise deterministic: one worker
 * and many workers produce the identical D matrix and identical
 * stats (per-tile outcomes reduce in tile order, and the merge cost
 * model is a pure function of its inputs).
 */
TEST_F(SpGemmDeviceTest, ParallelTileLoopIsDeterministic)
{
    Rng rng(131);
    Matrix<float> a = randomSparseMatrix(150, 100, 0.8, rng);
    Matrix<float> b = randomSparseMatrix(100, 170, 0.6, rng);

    SpGemmOptions serial;
    serial.num_workers = 1;
    SpGemmResult base = device_.multiply(a, b, serial);

    for (int workers : {0, 2, 5}) {
        SpGemmOptions opts;
        opts.num_workers = workers;
        SpGemmResult r = device_.multiply(a, b, opts);
        EXPECT_EQ(r.d.data(), base.d.data())
            << "workers=" << workers;
        expectIdenticalStats(r.stats, base.stats);
    }
}

TEST_F(SpGemmDeviceTest, ProfileTimingPathIsDeterministicAcrossWorkers)
{
    Rng rng(133);
    SparsityProfile a = SparsityProfile::randomA(256, 192, 32, 0.2,
                                                 2.0, rng);
    SparsityProfile b = SparsityProfile::randomA(224, 192, 32, 0.3,
                                                 1.0, rng);
    SpGemmOptions serial;
    serial.num_workers = 1;
    SpGemmOptions pooled;
    pooled.num_workers = 0;
    expectIdenticalStats(device_.timeFromProfiles(a, b, serial),
                         device_.timeFromProfiles(a, b, pooled));
}

TEST_F(SpGemmDeviceTest, SmallKernelsStayInTheCallerByDefault)
{
    // The shared pool's default keeps a kernel too small to repay a
    // pool round trip in the caller, values and timing alike; an
    // explicit worker count still splits it, to the same result.
    Rng rng(135);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.9, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.9, rng);
    const ThreadPool &pool = sharedThreadPool();
    uint64_t before = pool.jobsEnqueued();
    SpGemmResult by_default = device_.multiply(a, b);
    EXPECT_EQ(pool.jobsEnqueued(), before);

    SpGemmOptions split;
    split.num_workers = 4;
    before = pool.jobsEnqueued();
    SpGemmResult four = device_.multiply(a, b, split);
    EXPECT_GT(pool.jobsEnqueued(), before);
    EXPECT_EQ(four.d.data(), by_default.d.data());
    expectIdenticalStats(four.stats, by_default.stats);
}

/**
 * The seed flow of the device loop: each output tile accumulates its
 * non-empty tile pairs through computeTileScalar in a staging
 * accumulator, in ascending k, and is copied out to D.
 */
Matrix<float>
scalarPipeline(const SpGemmWarpEngine &engine,
               const TwoLevelBitmapMatrix &a_enc,
               const TwoLevelBitmapMatrix &b_enc)
{
    const int m = a_enc.rows(), n = b_enc.cols();
    Matrix<float> d(m, n);
    for (int ti = 0; ti < a_enc.numTileRows(); ++ti) {
        for (int tj = 0; tj < b_enc.numTileCols(); ++tj) {
            const int rows = std::min(32, m - ti * 32);
            const int cols = std::min(32, n - tj * 32);
            Matrix<float> accum(rows, cols);
            for (int tk = 0; tk < a_enc.numTileCols(); ++tk) {
                if (!a_enc.tileNonEmpty(ti, tk) ||
                    !b_enc.tileNonEmpty(tk, tj))
                    continue;
                engine.computeTileScalar(a_enc.tile(ti, tk),
                                         b_enc.tile(tk, tj), &accum);
            }
            for (int r = 0; r < rows; ++r)
                for (int c = 0; c < cols; ++c)
                    d.at(ti * 32 + r, tj * 32 + c) = accum.at(r, c);
        }
    }
    return d;
}

TEST_F(SpGemmDeviceTest, WordPipelineMatchesScalarReferencePipeline)
{
    // Device-level equivalence: the word-parallel pipeline writing
    // straight into D reproduces the seed flow (scalar warp path +
    // staging accumulator + copy-out) bit-for-bit.
    Rng rng(134);
    Matrix<float> a = randomSparseMatrix(90, 70, 0.75, rng);
    Matrix<float> b = randomSparseMatrix(70, 85, 0.5, rng);
    SpGemmOptions opts;
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);
    ASSERT_FALSE(aOnLanes(a_enc.nnz(), b_enc.nnz(), 90, 85));

    SpGemmResult r = device_.multiplyEncoded(a_enc, b_enc, opts);
    EXPECT_EQ(r.d.data(),
              scalarPipeline(SpGemmWarpEngine(cfg_), a_enc, b_enc).data());
}

TEST_F(SpGemmDeviceTest, DenseALanesMatchScalarPipelineAtEveryWorkerCount)
{
    // A dense A against a 92%-sparse B puts A on the lanes: the
    // staged tiles are transposed and the strips are A's tile rows.
    // Ragged M, N and K.
    Rng rng(135);
    Matrix<float> a = randomSparseMatrix(200, 150, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(150, 230, 0.92, rng);
    SpGemmOptions opts;
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);
    ASSERT_TRUE(aOnLanes(a_enc.nnz(), b_enc.nnz(), 200, 230));

    const Matrix<float> ref =
        scalarPipeline(SpGemmWarpEngine(cfg_), a_enc, b_enc);
    for (int workers : {1, 2, 4, 7}) {
        opts.num_workers = workers;
        EXPECT_EQ(device_.multiplyValues(a_enc, b_enc, opts).data(),
                  ref.data())
            << "workers=" << workers;
    }
}

TEST_F(SpGemmDeviceTest, DeepTilesMatchScalarPipeline)
{
    // tile_k = 128: past 64 lines the occupancy words are all ones
    // and the step loop checks each line instead. Both lane sides,
    // ragged M, N and K (the last k-chunk is 44 lines).
    Rng rng(136);
    for (auto [sa, sb] : {std::pair{0.3, 0.8}, std::pair{0.8, 0.3}}) {
        Matrix<float> a = randomSparseMatrix(70, 300, sa, rng);
        Matrix<float> b = randomSparseMatrix(300, 45, sb, rng);
        SpGemmOptions opts;
        opts.tile_k = 128;
        TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
            a, kWarpTile, opts.tile_k, Major::Col);
        TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
            b, opts.tile_k, kWarpTile, Major::Row);
        EXPECT_EQ(aOnLanes(a_enc.nnz(), b_enc.nnz(), 70, 45), sa < sb);

        const Matrix<float> ref =
            scalarPipeline(SpGemmWarpEngine(cfg_), a_enc, b_enc);
        for (int workers : {1, 4}) {
            opts.num_workers = workers;
            EXPECT_EQ(device_.multiplyValues(a_enc, b_enc, opts).data(),
                      ref.data())
                << "a sparsity " << sa << ", workers " << workers;
        }
    }
}

} // namespace
} // namespace dstc
