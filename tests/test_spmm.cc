/**
 * @file
 * SpMM (sparse A x dense B) equivalence and selection gates:
 *
 *  - the word-parallel narrow-tile encoder is bitwise-pinned to the
 *    scalar NarrowTileMatrix::encode for every worker count, ragged
 *    and degenerate shapes included, and decode() round-trips;
 *  - every functional SpMM path — narrow kernel, wide kernel, the
 *    cusparse-like CSR baseline — is bitwise identical to the scalar
 *    refSpmmNarrow reference across shapes, worker counts and
 *    datatypes (the dense backend is error-bounded only: its
 *    accumulation order differs);
 *  - plan-stage Auto format selection never picks a format more than
 *    5% worse than the better one (by construction it picks the
 *    exact minimum: estimate and execution share one cost routine);
 *  - the 32-wide profile aggregation the selection runs on equals a
 *    direct tile-32 profile of the same matrix;
 *  - hybrid SpMM dispatch partitions at strip granularity and stays
 *    within float tolerance of the reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/gemm_operands.h"
#include "core/session.h"
#include "gemm/spmm_device.h"
#include "sparse/word_encode.h"
#include "tensor/matrix.h"

namespace dstc {
namespace {

/** Bit-for-bit comparison of two narrow-tile encodings. */
void
expectNarrowIdentical(const NarrowTileMatrix &a,
                      const NarrowTileMatrix &b, const char *label)
{
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    ASSERT_EQ(a.numStrips(), b.numStrips()) << label;
    ASSERT_EQ(a.wordsPerStrip(), b.wordsPerStrip()) << label;
    ASSERT_EQ(a.numVectors(), b.numVectors()) << label;
    ASSERT_EQ(a.nnz(), b.nnz()) << label;
    ASSERT_EQ(a.encodedBytes(), b.encodedBytes()) << label;
    for (int s = 0; s < a.numStrips(); ++s) {
        ASSERT_EQ(a.stripOffset(s), b.stripOffset(s)) << label;
        ASSERT_EQ(a.stripNnz(s), b.stripNnz(s)) << label;
        for (int w = 0; w < a.wordsPerStrip(); ++w)
            ASSERT_EQ(a.stripWord(s, w), b.stripWord(s, w))
                << label << " strip " << s << " word " << w;
    }
    for (int64_t v = 0; v < a.numVectors(); ++v) {
        ASSERT_EQ(a.vectorMask(v), b.vectorMask(v))
            << label << " vector " << v;
        const auto va = a.vectorValues(v);
        const auto vb = b.vectorValues(v);
        const auto qa = a.vectorValuesQuant(v);
        const auto qb = b.vectorValuesQuant(v);
        ASSERT_EQ(va.size(), vb.size()) << label;
        for (size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(va[i], vb[i]) << label << " vector " << v;
            ASSERT_EQ(qa[i], qb[i]) << label << " vector " << v;
        }
    }
}

void
expectMatricesEqual(const Matrix<float> &x, const Matrix<float> &y,
                    const char *label)
{
    ASSERT_EQ(x.rows(), y.rows()) << label;
    ASSERT_EQ(x.cols(), y.cols()) << label;
    for (int r = 0; r < x.rows(); ++r)
        for (int c = 0; c < x.cols(); ++c)
            ASSERT_EQ(x.at(r, c), y.at(r, c))
                << label << " at (" << r << ", " << c << ")";
}

/** Edge-structure zoo: empty rows/cols, all-empty strips, degenerate
 *  and non-multiple-of-8/32 shapes. */
std::vector<std::pair<std::string, Matrix<float>>>
edgeMatrices()
{
    Rng rng(0x90e);
    std::vector<std::pair<std::string, Matrix<float>>> zoo;
    zoo.emplace_back("ultra-sparse 64x96",
                     randomSparseMatrix(64, 96, 0.99, rng));
    zoo.emplace_back("ragged 33x65",
                     randomSparseMatrix(33, 65, 0.9, rng));
    zoo.emplace_back("row-vector 1x37",
                     randomSparseMatrix(1, 37, 0.5, rng));
    zoo.emplace_back("col-vector 37x1",
                     randomSparseMatrix(37, 1, 0.5, rng));
    zoo.emplace_back("all-zero 40x40", Matrix<float>(40, 40));

    // Alternating all-empty 8-row strips, plus empty columns: the
    // level-1 word scan must skip whole strips and whole vectors.
    Matrix<float> striped(48, 64);
    for (int r = 0; r < 48; ++r) {
        if ((r / 8) % 2)
            continue;
        for (int c = 0; c < 64; c += 3) // columns 1, 2 mod 3 empty
            striped.at(r, c) = rng.uniformFloat(-1.0f, 1.0f);
    }
    zoo.emplace_back("empty strips + empty cols", std::move(striped));

    // One lone entry in the last, clipped strip of a ragged shape.
    Matrix<float> lone(27, 50);
    lone.at(26, 49) = 1.25f;
    zoo.emplace_back("lone entry in clipped strip", std::move(lone));
    return zoo;
}

TEST(NarrowTile, WordEncoderMatchesScalarEveryWorkerCount)
{
    for (const auto &[label, a] : edgeMatrices()) {
        const NarrowTileMatrix scalar = NarrowTileMatrix::encode(a);
        for (int workers : {1, 2, 4, 7}) {
            const NarrowTileMatrix word =
                wordEncodeNarrowTile(a, workers);
            expectNarrowIdentical(scalar, word, label.c_str());
        }
        expectMatricesEqual(a, scalar.decode(), label.c_str());
    }
}

TEST(NarrowTile, IntegerSpecQuantizesValueLane)
{
    Rng rng(7);
    const Matrix<float> a = randomSparseMatrix(16, 40, 0.8, rng);
    const QuantSpec spec = QuantSpec::forValues(
        DataType::Int8, a.data().data(), a.data().size());
    const NarrowTileMatrix scalar = NarrowTileMatrix::encode(a, spec);
    for (int workers : {2, 7})
        expectNarrowIdentical(scalar,
                              wordEncodeNarrowTile(a, workers, spec),
                              "int8 spec");
    EXPECT_EQ(scalar.spec(), spec);
    // Quantized lane actually differs from the raw one somewhere.
    bool differs = false;
    for (int64_t v = 0; v < scalar.numVectors() && !differs; ++v) {
        const auto raw = scalar.vectorValues(v);
        const auto q = scalar.vectorValuesQuant(v);
        for (size_t i = 0; i < raw.size(); ++i)
            differs = differs || raw[i] != q[i];
    }
    EXPECT_TRUE(differs);
}

/** All functional backends on one request; narrow result returned. */
void
expectSpmmBitwiseSet(Session &session, const Matrix<float> &a,
                     const Matrix<float> &b, DataType dtype,
                     const char *label)
{
    const Matrix<float> ref = refSpmmNarrow(a, b, dtype);
    const KernelReport narrow =
        session.run(KernelRequest::spmm(a, b)
                        .withMethod(Method::DualSparse)
                        .withSpmmFormat(SpmmFormat::Narrow)
                        .withDataType(dtype));
    ASSERT_TRUE(narrow.d) << label;
    expectMatricesEqual(ref, *narrow.d, label);
    EXPECT_EQ(narrow.stats.name, "dstc_spmm_narrow") << label;

    const KernelReport wide =
        session.run(KernelRequest::spmm(a, b)
                        .withMethod(Method::DualSparse)
                        .withSpmmFormat(SpmmFormat::Wide)
                        .withDataType(dtype));
    ASSERT_TRUE(wide.d) << label;
    expectMatricesEqual(ref, *wide.d, label);
    EXPECT_EQ(wide.stats.name, "dstc_spmm_wide") << label;

    const KernelReport csr =
        session.run(KernelRequest::spmm(a, b)
                        .withMethod(Method::CusparseLike)
                        .withDataType(dtype));
    ASSERT_TRUE(csr.d) << label;
    expectMatricesEqual(ref, *csr.d, label);
}

TEST(Spmm, BackendsBitwiseEqualAcrossEdgeShapes)
{
    Session session;
    Rng rng(0x5133);
    for (const auto &[label, a] : edgeMatrices()) {
        const Matrix<float> b =
            randomSparseMatrix(a.cols(), 5, 0.0, rng);
        expectSpmmBitwiseSet(session, a, b, DataType::Fp16,
                             label.c_str());
    }
}

TEST(Spmm, IntegerDatatypesStayBitwise)
{
    Session session;
    Rng rng(0xd7);
    const Matrix<float> a = randomSparseMatrix(64, 128, 0.97, rng);
    const Matrix<float> b = randomSparseMatrix(128, 8, 0.0, rng);
    for (DataType dtype :
         {DataType::Int8, DataType::Int4, DataType::Bf16})
        expectSpmmBitwiseSet(session, a, b, dtype,
                             tokenOf(kDataTypes, dtype));
}

TEST(Spmm, NarrowKernelBitwiseStableAcrossWorkers)
{
    Rng rng(0xab);
    const Matrix<float> a = randomSparseMatrix(96, 160, 0.98, rng);
    const Matrix<float> b = randomSparseMatrix(160, 16, 0.0, rng);
    const Matrix<float> ref = refSpmmNarrow(a, b, DataType::Fp16);
    for (int w : {1, 2, 4, 7}) {
        SessionOptions opts;
        opts.resources = {.compute_workers = w, .encode_workers = w};
        Session session(opts);
        const KernelReport r =
            session.run(KernelRequest::spmm(a, b)
                            .withMethod(Method::DualSparse)
                            .withSpmmFormat(SpmmFormat::Narrow));
        ASSERT_TRUE(r.d) << "workers " << w;
        expectMatricesEqual(ref, *r.d, "worker sweep");
    }
}

TEST(Spmm, DenseBackendErrorBounded)
{
    Session session;
    Rng rng(0x3c);
    const Matrix<float> a = randomSparseMatrix(48, 64, 0.95, rng);
    const Matrix<float> b = randomSparseMatrix(64, 8, 0.0, rng);
    const Matrix<float> ref = refSpmmNarrow(a, b, DataType::Fp16);
    const KernelReport dense = session.run(
        KernelRequest::spmm(a, b).withMethod(Method::Dense));
    ASSERT_TRUE(dense.d);
    for (int r = 0; r < ref.rows(); ++r)
        for (int c = 0; c < ref.cols(); ++c)
            EXPECT_NEAR(ref.at(r, c), dense.d->at(r, c), 5e-2)
                << "(" << r << ", " << c << ")";
}

TEST(Spmm, AggregatedProfileMatchesDirectTile32Profile)
{
    Rng rng(0x77);
    for (int rows : {32, 40, 57, 128}) {
        const Matrix<float> a =
            randomSparseMatrix(rows, 96, 0.95, rng);
        const SparsityProfile a8 =
            SparsityProfile::fromMatrixAWord(a, 8);
        const SparsityProfile a32 = aggregateSpmmProfile(a8);
        const SparsityProfile direct =
            SparsityProfile::fromMatrixAWord(a, 32);
        ASSERT_EQ(a32.groups(), direct.groups()) << rows;
        ASSERT_EQ(a32.k(), direct.k()) << rows;
        ASSERT_EQ(a32.extent(), direct.extent()) << rows;
        for (int g = 0; g < a32.groups(); ++g)
            for (int64_t kk = 0; kk < a32.k(); ++kk)
                ASSERT_EQ(a32.count(g, kk), direct.count(g, kk))
                    << rows << " group " << g << " k " << kk;
    }
}

TEST(Spmm, AutoSelectionWithinFivePercentOfBestFormat)
{
    Session session;
    Rng rng(0xfe);
    // Concrete matrices on both sides of the crossover, plus the
    // synthetic profile flavor — selection must track the minimum
    // of the two forced-format estimates everywhere.
    std::vector<std::pair<std::string, Matrix<float>>> operands;
    operands.emplace_back("ultra-sparse",
                          randomSparseMatrix(512, 512, 0.995, rng));
    operands.emplace_back("moderate",
                          randomSparseMatrix(512, 512, 0.7, rng));
    for (const auto &[label, a] : operands) {
        const Matrix<float> b =
            randomSparseMatrix(a.cols(), 32, 0.0, rng);
        double t[3] = {0, 0, 0};
        const SpmmFormat formats[3] = {SpmmFormat::Auto,
                                       SpmmFormat::Narrow,
                                       SpmmFormat::Wide};
        for (int i = 0; i < 3; ++i)
            t[i] = session
                       .run(KernelRequest::spmm(a, b)
                                .withMethod(Method::DualSparse)
                                .withSpmmFormat(formats[i])
                                .withFunctional(false))
                       .timeUs();
        EXPECT_LE(t[0], 1.05 * std::min(t[1], t[2])) << label;
    }
    for (double sparsity : {0.999, 0.99, 0.95, 0.8}) {
        double t[3] = {0, 0, 0};
        const SpmmFormat formats[3] = {SpmmFormat::Auto,
                                       SpmmFormat::Narrow,
                                       SpmmFormat::Wide};
        for (int i = 0; i < 3; ++i)
            t[i] = session
                       .run(KernelRequest::spmm(512, 32, 512,
                                                sparsity)
                                .withMethod(Method::DualSparse)
                                .withSpmmFormat(formats[i])
                                .withSeed(11))
                       .timeUs();
        EXPECT_LE(t[0], 1.05 * std::min(t[1], t[2]))
            << "sparsity " << sparsity;
    }
}

TEST(Spmm, PlanEstimateMatchesExecutedTime)
{
    Session session;
    Rng rng(0x21);
    const Matrix<float> a = randomSparseMatrix(256, 256, 0.99, rng);
    const Matrix<float> b = randomSparseMatrix(256, 32, 0.0, rng);
    // Method::Auto computes the plan-stage estimate; at 99% sparsity
    // the dual-sparse SpMM wins the dispatch. Estimate and execution
    // fold the same per-strip counts through one shared routine, so
    // the planning estimate is exact, not approximate.
    const KernelReport r =
        session.run(KernelRequest::spmm(a, b));
    EXPECT_EQ(r.method, Method::DualSparse);
    EXPECT_GT(r.planned_us, 0.0);
    EXPECT_NEAR(r.planned_us, r.timeUs(), 1e-9);
}

TEST(Spmm, HybridPartitionsAtStripGranularity)
{
    Session session;
    Rng rng(0x8d);
    // Dense 8-row strips alternating with near-empty ones: the split
    // must route the dense strips off the dual-sparse kernel without
    // ever cutting through a strip.
    const int m = 128, k = 256, n = 16;
    Matrix<float> a(m, k);
    for (int r = 0; r < m; ++r) {
        const double density = (r / 8) % 2 ? 0.005 : 0.6;
        for (int c = 0; c < k; ++c)
            if (rng.bernoulli(density)) {
                const float v = rng.uniformFloat(-1.0f, 1.0f);
                a.at(r, c) = (v == 0.0f) ? 0.5f : v;
            }
    }
    const Matrix<float> b = randomSparseMatrix(k, n, 0.0, rng);
    const KernelReport hyb = session.run(
        KernelRequest::spmm(a, b).withMethod(Method::Hybrid));
    ASSERT_TRUE(hyb.d);
    EXPECT_NE(hyb.stats.name.find("hybrid"), std::string::npos)
        << hyb.stats.name;
    // Classes may route to the dense backend, whose accumulation
    // order differs — float tolerance, not bitwise.
    const Matrix<float> ref = refSpmmNarrow(a, b, DataType::Fp16);
    for (int r = 0; r < m; ++r)
        for (int c = 0; c < n; ++c)
            EXPECT_NEAR(ref.at(r, c), hyb.d->at(r, c), 5e-2)
                << "(" << r << ", " << c << ")";
}

} // namespace
} // namespace dstc
