#include "gemm/spgemm_warp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "gemm/lane_step.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

class SpGemmWarpTest : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = GpuConfig::v100();
    SpGemmWarpEngine engine_{cfg_};
};

TEST_F(SpGemmWarpTest, FunctionalMatchesReference)
{
    Rng rng(111);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.6, rng);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
    Matrix<float> accum(32, 32);
    engine_.computeTile(a_bm, b_bm, &accum);
    EXPECT_LT(maxAbsDiff(accum, refGemmFp16(a, b)), 1e-6);
}

TEST_F(SpGemmWarpTest, AccumulatesOntoExistingValues)
{
    Rng rng(112);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.5, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.5, rng);
    Matrix<float> c = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> accum = c;
    engine_.computeTile(BitmapMatrix::encode(a, Major::Col),
                        BitmapMatrix::encode(b, Major::Row), &accum);
    EXPECT_LT(maxAbsDiff(accum, refGemmFp16(a, b, &c)), 1e-6);
}

TEST_F(SpGemmWarpTest, InstructionCountsMatchPopcountFormula)
{
    Rng rng(113);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.4, rng);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
    WarpTileResult r = engine_.computeTile(a_bm, b_bm, nullptr);

    int64_t expected_issued = 0, expected_bohmma = 0,
            expected_macs = 0;
    for (int k = 0; k < 32; ++k) {
        const int na = a_bm.lineNnz(k);
        const int nb = b_bm.lineNnz(k);
        if (na == 0 || nb == 0)
            continue;
        ++expected_bohmma;
        expected_issued += enabledOhmmas(na, nb);
        expected_macs += static_cast<int64_t>(na) * nb;
    }
    EXPECT_EQ(r.mix.ohmma_issued, expected_issued);
    EXPECT_EQ(r.mix.bohmma, expected_bohmma);
    EXPECT_EQ(r.macs, expected_macs);
    EXPECT_EQ(r.merge_accesses, expected_macs);
    // Two POPCs per surviving k-step; empty steps are compacted.
    EXPECT_EQ(r.mix.popc, 2 * expected_bohmma);
    EXPECT_EQ(r.issue_cycles, expected_issued + expected_bohmma);
    EXPECT_EQ(r.scalar_cycles, expected_bohmma + 2);
}

TEST_F(SpGemmWarpTest, DenseTileIssuesEverything)
{
    Rng rng(115);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.0, rng);
    WarpTileResult r =
        engine_.computeTile(BitmapMatrix::encode(a, Major::Col),
                            BitmapMatrix::encode(b, Major::Row),
                            nullptr);
    EXPECT_EQ(r.mix.ohmma_issued, 32 * 8);
    EXPECT_EQ(r.mix.ohmma_skipped, 0);
    EXPECT_EQ(r.macs, 32768);
}

TEST_F(SpGemmWarpTest, EmptyTileIsFree)
{
    Matrix<float> zero(32, 32);
    Rng rng(116);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.2, rng);
    WarpTileResult r =
        engine_.computeTile(BitmapMatrix::encode(zero, Major::Col),
                            BitmapMatrix::encode(b, Major::Row),
                            nullptr);
    EXPECT_EQ(r.issue_cycles, 0);
    EXPECT_EQ(r.merge_cycles, 0);
    EXPECT_EQ(r.macs, 0);
    // Only the per-tile occupancy-AND floor remains. (At device
    // level the warp-bitmap skips the tile before even this is
    // paid.)
    EXPECT_EQ(r.cycles(), 2);
    EXPECT_EQ(r.scalar_cycles, 2);
}

TEST_F(SpGemmWarpTest, SparserInputsIssueFewerCycles)
{
    Rng rng(117);
    int64_t prev = INT64_MAX;
    for (double sparsity : {0.0, 0.5, 0.9, 0.99}) {
        Matrix<float> a = randomSparseMatrix(32, 32, sparsity, rng);
        Matrix<float> b = randomSparseMatrix(32, 32, sparsity, rng);
        WarpTileResult r = engine_.computeTile(
            BitmapMatrix::encode(a, Major::Col),
            BitmapMatrix::encode(b, Major::Row), nullptr);
        EXPECT_LE(r.issue_cycles, prev);
        prev = r.issue_cycles;
    }
}

TEST_F(SpGemmWarpTest, DetailedMergeCloseToModel)
{
    Rng rng(118);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.4, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.4, rng);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
    WarpTileResult modeled =
        engine_.computeTile(a_bm, b_bm, nullptr, false);
    WarpTileResult detailed =
        engine_.computeTile(a_bm, b_bm, nullptr, true);
    EXPECT_NEAR(static_cast<double>(modeled.merge_cycles),
                static_cast<double>(detailed.merge_cycles),
                static_cast<double>(detailed.merge_cycles) * 0.5 + 8.0);
}

TEST_F(SpGemmWarpTest, PartialTileDimensions)
{
    Rng rng(119);
    Matrix<float> a = randomSparseMatrix(20, 12, 0.4, rng);
    Matrix<float> b = randomSparseMatrix(12, 25, 0.4, rng);
    Matrix<float> accum(20, 25);
    engine_.computeTile(BitmapMatrix::encode(a, Major::Col),
                        BitmapMatrix::encode(b, Major::Row), &accum);
    EXPECT_LT(maxAbsDiff(accum, refGemmFp16(a, b)), 1e-6);
}

class WarpSparsitySweep
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(WarpSparsitySweep, FunctionalAcrossSparsities)
{
    const auto [sa, sb] = GetParam();
    Rng rng(static_cast<uint64_t>(sa * 100 + sb * 10) + 7);
    GpuConfig cfg = GpuConfig::v100();
    SpGemmWarpEngine engine(cfg);
    Matrix<float> a = randomSparseMatrix(32, 32, sa, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, sb, rng);
    Matrix<float> accum(32, 32);
    engine.computeTile(BitmapMatrix::encode(a, Major::Col),
                       BitmapMatrix::encode(b, Major::Row), &accum);
    EXPECT_LT(maxAbsDiff(accum, refGemmFp16(a, b)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sparsities, WarpSparsitySweep,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{0.0, 0.99},
                      std::pair{0.99, 0.0}, std::pair{0.5, 0.5},
                      std::pair{0.9, 0.9}, std::pair{1.0, 0.5},
                      std::pair{0.25, 0.75}));

/** Every field of two WarpTileResults must agree exactly. */
void
expectIdenticalResults(const WarpTileResult &word,
                       const WarpTileResult &scalar)
{
    EXPECT_EQ(word.mix.hmma, scalar.mix.hmma);
    EXPECT_EQ(word.mix.ohmma_issued, scalar.mix.ohmma_issued);
    EXPECT_EQ(word.mix.ohmma_skipped, scalar.mix.ohmma_skipped);
    EXPECT_EQ(word.mix.bohmma, scalar.mix.bohmma);
    EXPECT_EQ(word.mix.popc, scalar.mix.popc);
    EXPECT_EQ(word.issue_cycles, scalar.issue_cycles);
    EXPECT_EQ(word.merge_accesses, scalar.merge_accesses);
    EXPECT_EQ(word.merge_cycles, scalar.merge_cycles);
    EXPECT_EQ(word.scalar_cycles, scalar.scalar_cycles);
    EXPECT_EQ(word.macs, scalar.macs);
    EXPECT_EQ(word.cycles(), scalar.cycles());
}

struct EquivalenceParam
{
    int m, k, n;
    double sa, sb;
    bool detailed;
};

class WordScalarEquivalence
    : public ::testing::TestWithParam<EquivalenceParam>
{
};

/**
 * Bit patterns of a matrix, so signed zeros and infinities compare
 * exactly, with every NaN mapped to one canonical quiet NaN. When
 * both operands of a multiply or add are NaN, IEEE 754 leaves open
 * which one's sign and payload the result carries, and the compiler
 * may commute either operation, so a scalar and a vector build of
 * the same expression can disagree on that sign (int8 codes of an
 * operand holding +-inf are NaNs of both signs). Whether a cell is
 * NaN is still pinned.
 */
std::vector<uint32_t>
bitsOf(const Matrix<float> &mat)
{
    std::vector<uint32_t> bits(mat.data().size());
    for (size_t i = 0; i < bits.size(); ++i) {
        const float v = mat.data()[i];
        bits[i] = std::isnan(v) ? 0x7fc00000u
                                : std::bit_cast<uint32_t>(v);
    }
    return bits;
}

/**
 * The tile pair accumulated by one compiled strip-kernel variant, as
 * a one-tile strip with the chosen operand on the lanes, onto the
 * accumulator @p init; returns the (m x n) region.
 */
Matrix<float>
runVariant(const BitmapMatrix &a_bm, const BitmapMatrix &b_bm,
           const Matrix<float> &init, StripKernelFn fn, bool a_on_lanes)
{
    const int m = init.rows(), n = init.cols();
    LaneTile tile;
    loadLaneTile(init.data().data(), n, m, n, a_on_lanes, tile.v);
    const BitmapMatrix *lane = a_on_lanes ? &a_bm : &b_bm;
    const BitmapMatrix *other = a_on_lanes ? &b_bm : &a_bm;
    LaneStrip strip;
    strip.expand({&lane, 1}, a_bm.cols());
    fn(tile.v, strip, &other);
    Matrix<float> out(m, n);
    storeLaneTile(tile.v, m, n, a_on_lanes, out.data().data(), n);
    return out;
}

/** Every compiled variant the running CPU supports, with either
 *  operand on the lanes, reproduces the scalar reference's
 *  accumulator bit for bit. */
void
expectEveryVariantMatches(const BitmapMatrix &a_bm,
                          const BitmapMatrix &b_bm,
                          const Matrix<float> &init,
                          const Matrix<float> &scalar)
{
    ASSERT_FALSE(stripKernelVariants().empty());
    EXPECT_STREQ(stripKernelVariants().back().name, "default");
    for (const StripKernelVariant &v : stripKernelVariants())
        for (bool a_on_lanes : {false, true})
            EXPECT_EQ(bitsOf(runVariant(a_bm, b_bm, init, v.fn,
                                        a_on_lanes)),
                      bitsOf(scalar))
                << "strip kernel " << v.name
                << (a_on_lanes ? ", A" : ", B") << " on the lanes";
}

/**
 * The word-parallel path must reproduce the seed per-element path
 * bit-for-bit: identical accumulator contents (the FP32 sums, not
 * just close), identical instruction mix, and identical cycle
 * accounting under both merge models.
 */
TEST_P(WordScalarEquivalence, BitwiseIdenticalToScalarReference)
{
    const auto &p = GetParam();
    Rng rng(static_cast<uint64_t>(p.m * 977 + p.k * 31 + p.n) +
            static_cast<uint64_t>(p.sa * 100));
    GpuConfig cfg = GpuConfig::v100();
    SpGemmWarpEngine engine(cfg);
    Matrix<float> a = randomSparseMatrix(p.m, p.k, p.sa, rng);
    Matrix<float> b = randomSparseMatrix(p.k, p.n, p.sb, rng);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);

    Matrix<float> accum_word(p.m, p.n);
    Matrix<float> accum_scalar(p.m, p.n);
    WarpTileResult word =
        engine.computeTile(a_bm, b_bm, &accum_word, p.detailed);
    WarpTileResult scalar = engine.computeTileScalar(
        a_bm, b_bm, &accum_scalar, p.detailed);

    expectIdenticalResults(word, scalar);
    EXPECT_EQ(bitsOf(accum_word), bitsOf(accum_scalar));
    expectEveryVariantMatches(a_bm, b_bm, Matrix<float>(p.m, p.n),
                              accum_scalar);

    // Onto a non-zero accumulator too.
    const Matrix<float> init = randomSparseMatrix(p.m, p.n, 0.0, rng);
    Matrix<float> onto = init;
    engine.computeTileScalar(a_bm, b_bm, &onto, p.detailed);
    expectEveryVariantMatches(a_bm, b_bm, init, onto);

    // Timing-only calls (null accumulator) agree too.
    expectIdenticalResults(
        engine.computeTile(a_bm, b_bm, nullptr, p.detailed),
        engine.computeTileScalar(a_bm, b_bm, nullptr, p.detailed));
}

INSTANTIATE_TEST_SUITE_P(
    SparsitiesAndEdges, WordScalarEquivalence,
    ::testing::Values(
        EquivalenceParam{32, 32, 32, 0.0, 0.0, false},
        EquivalenceParam{32, 32, 32, 0.5, 0.5, false},
        EquivalenceParam{32, 32, 32, 0.9, 0.9, false},
        EquivalenceParam{32, 32, 32, 0.95, 0.7, true},
        EquivalenceParam{32, 32, 32, 0.9, 0.9, true},
        EquivalenceParam{20, 12, 25, 0.4, 0.4, false}, // odd edges
        EquivalenceParam{20, 12, 25, 0.4, 0.4, true},
        EquivalenceParam{1, 7, 31, 0.6, 0.2, false},
        EquivalenceParam{31, 1, 1, 0.3, 0.8, true},
        EquivalenceParam{32, 32, 32, 1.0, 0.5, false}));

/** (dtype, hostile operands, accumulator pre-fill, n, tile_k). */
using VariantParam = std::tuple<DataType, bool, float, int, int>;

class LaneVariantEquivalence
    : public ::testing::TestWithParam<VariantParam>
{
};

/**
 * Replace about one non-zero in six with a hostile value: +-inf, a
 * quiet NaN, an FP16 overflow (7e4) or a value that quantizes to +-0
 * (1e-9). Every one keeps its bitmap bit.
 */
void
sprinkleHostile(Matrix<float> &mat, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float hostile[] = {inf,   -inf,  std::nanf(""), 7e4f,
                             -7e4f, 1e-9f, -1e-9f};
    for (float &v : mat.data())
        if (v != 0.0f && rng.bernoulli(1.0 / 6.0))
            v = hostile[rng.uniformInt(std::size(hostile))];
}

/**
 * Each compiled strip-kernel variant on both lane sides, and the
 * dispatched computeTile, against computeTileScalar across
 * datatypes, hostile operands, non-zero accumulator pre-fills (-0.0,
 * +inf, quiet NaN), ragged widths and k depths on both sides of the
 * 64-line occupancy word.
 */
TEST_P(LaneVariantEquivalence, BitwiseIdenticalToScalarReference)
{
    const auto [dtype, hostile, prefill, n, k] = GetParam();
    const int m = 32;
    Rng rng(static_cast<uint64_t>(static_cast<int>(dtype) * 1000 +
                                  n * 100 + k) +
            (hostile ? 7 : 0));
    Matrix<float> a = randomSparseMatrix(m, k, 0.5, rng);
    Matrix<float> b = randomSparseMatrix(k, n, 0.5, rng);
    if (hostile) {
        sprinkleHostile(a, rng);
        sprinkleHostile(b, rng);
    }
    const QuantSpec spec_a =
        QuantSpec::forValues(dtype, a.data().data(), a.data().size());
    const QuantSpec spec_b =
        QuantSpec::forValues(dtype, b.data().data(), b.data().size());
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col, spec_a);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row, spec_b);

    GpuConfig cfg = GpuConfig::v100();
    SpGemmWarpEngine engine(cfg);
    const Matrix<float> init(m, n, prefill);
    Matrix<float> scalar = init;
    WarpTileResult scalar_r = engine.computeTileScalar(
        a_bm, b_bm, &scalar, false, spec_a, spec_b);

    expectEveryVariantMatches(a_bm, b_bm, init, scalar);
    Matrix<float> word = init;
    expectIdenticalResults(engine.computeTile(a_bm, b_bm, &word),
                           scalar_r);
    EXPECT_EQ(bitsOf(word), bitsOf(scalar));
}

INSTANTIATE_TEST_SUITE_P(
    DtypesHostileRagged, LaneVariantEquivalence,
    ::testing::Combine(
        ::testing::Values(DataType::Fp32, DataType::Fp16,
                          DataType::Bf16, DataType::Int8,
                          DataType::Int4),
        ::testing::Bool(),
        ::testing::Values(0.0f, -0.0f,
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()),
        ::testing::Values(1, 17, 31), ::testing::Values(8, 64, 96)));

TEST_F(SpGemmWarpTest, ScratchArenaIsReusableAcrossTiles)
{
    // One arena serves many tiles of different shapes; results match
    // the per-call convenience overload exactly.
    Rng rng(210);
    WarpScratch scratch;
    for (auto [m, k, n] :
         {std::tuple{32, 32, 32}, std::tuple{8, 20, 30},
          std::tuple{32, 5, 17}}) {
        Matrix<float> a = randomSparseMatrix(m, k, 0.5, rng);
        Matrix<float> b = randomSparseMatrix(k, n, 0.5, rng);
        BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
        BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
        Matrix<float> via_arena(m, n);
        Matrix<float> via_overload(m, n);
        WarpTileResult r1 =
            engine_.computeTile(a_bm, b_bm, via_arena.data().data(),
                                n, false, scratch);
        WarpTileResult r2 =
            engine_.computeTile(a_bm, b_bm, &via_overload);
        expectIdenticalResults(r1, r2);
        EXPECT_EQ(via_arena.data(), via_overload.data());
    }
}

TEST_F(SpGemmWarpTest, StridedAccumulatorWritesOnlyItsRegion)
{
    // A 32x32 tile accumulating into the middle of a larger matrix
    // through the leading dimension: surroundings stay untouched.
    Rng rng(211);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.6, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.6, rng);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);

    const int ld = 96;
    Matrix<float> big(64, ld, 7.0f);
    for (int r = 16; r < 48; ++r)
        for (int c = 40; c < 72; ++c)
            big.at(r, c) = 0.0f;
    WarpScratch scratch;
    engine_.computeTile(a_bm, b_bm,
                        big.data().data() + 16 * ld + 40, ld, false,
                        scratch);

    Matrix<float> expect(32, 32);
    engine_.computeTile(a_bm, b_bm, &expect);
    for (int r = 0; r < 64; ++r)
        for (int c = 0; c < ld; ++c) {
            const bool inside =
                r >= 16 && r < 48 && c >= 40 && c < 72;
            EXPECT_EQ(big.at(r, c),
                      inside ? expect.at(r - 16, c - 40) : 7.0f)
                << "r=" << r << " c=" << c;
        }
}

} // namespace
} // namespace dstc
