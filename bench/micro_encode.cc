/**
 * @file
 * Micro-benchmark of the word-parallel operand-encode layer — the
 * stage the paper argues must be cheap enough to run online on both
 * GEMM sides. Three kinds of point:
 *
 *  - "twolevel": dense -> two-level encode of a GEMM operand pair
 *    (A column-major + B row-major, exactly what a functional
 *    dual-sparse request encodes), three ways: the element-wise
 *    scalar reference (TwoLevelBitmapMatrix::encode), the
 *    word-parallel single-thread encoder, and the pooled parallel
 *    encoder (encode_workers = 0). Reports dense GB/s through the
 *    word encoder.
 *  - "request": end-to-end dense-GEMM request latency through a
 *    Session — cold (word encode + compute) vs the old pipeline's
 *    cost (scalar encode + the same cached-compute request).
 *  - "lowering": the strided conv im2col gather, word-parallel
 *    deinterleave vs the retained per-bit probe reference, at
 *    stride 2 and 3.
 *
 * Results are written as JSON (default BENCH_encode.json; see the
 * bench_json CMake target) so every PR leaves a perf trajectory and
 * tools/check_bench.py can gate regressions in CI. `--quick` runs a
 * seconds-scale subset. Any bitwise divergence between the scalar
 * and word paths is fatal — the bench doubles as an equivalence
 * check.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/session.h"
#include "im2col/bitmap_im2col.h"
#include "model/sparsity_gen.h"
#include "sparse/word_encode.h"
#include "tensor/tensor4d.h"

using namespace dstc;
using bench::timeMs;

namespace {

struct Point
{
    std::string kind; ///< "twolevel" | "request" | "lowering"
    int m = 0, k = 0;
    double sparsity = 0.0;
    int stride = 0; ///< lowering points only
    double scalar_ms = 0.0;
    double word_ms = 0.0;
    double parallel_ms = 0.0;
    double gbps = 0.0; ///< dense bytes through the word path
    bool bitwise_equal = false;
};

/** Bit-for-bit comparison of two one-level bitmaps. */
bool
identicalBitmap(const BitmapMatrix &a, const BitmapMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.major() != b.major() || a.nnz() != b.nnz())
        return false;
    for (int line = 0; line < a.numLines(); ++line) {
        const auto wa = a.lineBits(line);
        const auto wb = b.lineBits(line);
        const auto va = a.lineValues(line);
        const auto vb = b.lineValues(line);
        const auto fa = a.lineValuesFp16(line);
        const auto fb = b.lineValuesFp16(line);
        if (wa.size() != wb.size() || va.size() != vb.size())
            return false;
        if (std::memcmp(wa.data(), wb.data(),
                        wa.size() * sizeof(uint64_t)) != 0 ||
            std::memcmp(va.data(), vb.data(),
                        va.size() * sizeof(float)) != 0 ||
            std::memcmp(fa.data(), fb.data(),
                        fa.size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

/** Bit-for-bit comparison of two two-level encodings. */
bool
identicalTwoLevel(const TwoLevelBitmapMatrix &a,
                  const TwoLevelBitmapMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.numTileRows() != b.numTileRows() ||
        a.numTileCols() != b.numTileCols() || a.nnz() != b.nnz() ||
        a.nonEmptyTiles() != b.nonEmptyTiles())
        return false;
    for (int tr = 0; tr < a.numTileRows(); ++tr)
        for (int tc = 0; tc < a.numTileCols(); ++tc)
            if (a.tileNonEmpty(tr, tc) != b.tileNonEmpty(tr, tc) ||
                !identicalBitmap(a.tile(tr, tc), b.tile(tr, tc)))
                return false;
    return true;
}

/**
 * One datatype point of the encode precision axis: wall time of the
 * word-parallel encode filling that datatype's value lane, the
 * dtype-aware encoded footprint of the operand pair, and the bitwise
 * pin of the word encoder against the element-wise scalar encode
 * under the same QuantSpec (serial and pooled).
 */
struct PrecisionPoint
{
    int m = 0, k = 0;
    double sparsity = 0.0;
    DataType dtype = DataType::Fp16;
    double word_ms = 0.0;
    double encoded_mb = 0.0;
    bool bitwise_equal = false;
};

PrecisionPoint
runEncodePrecisionPoint(int size, double sparsity, DataType dtype,
                        int reps)
{
    PrecisionPoint p;
    p.m = p.k = size;
    p.sparsity = sparsity;
    p.dtype = dtype;

    Rng rng(0xe4c0de ^ (static_cast<uint64_t>(sparsity * 100) << 8) ^
            static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);
    SpGemmOptions opts; // tile_k = 32

    const QuantSpec spec_a = QuantSpec::forValues(
        dtype, a.data().data(), a.data().size());
    const QuantSpec spec_b = QuantSpec::forValues(
        dtype, b.data().data(), b.data().size());

    p.word_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, kWarpTile, opts.tile_k, Major::Col, 1,
                           spec_a);
        wordEncodeTwoLevel(b, opts.tile_k, kWarpTile, Major::Row, 1,
                           spec_b);
    });

    TwoLevelBitmapMatrix a_word = wordEncodeTwoLevel(
        a, kWarpTile, opts.tile_k, Major::Col, 1, spec_a);
    TwoLevelBitmapMatrix b_pooled = wordEncodeTwoLevel(
        b, opts.tile_k, kWarpTile, Major::Row, 0, spec_b);
    TwoLevelBitmapMatrix a_scalar = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col, spec_a);
    TwoLevelBitmapMatrix b_scalar = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row, spec_b);
    p.encoded_mb = (a_scalar.encodedBytes() +
                    b_scalar.encodedBytes()) /
                   1e6;
    p.bitwise_equal = identicalTwoLevel(a_word, a_scalar) &&
                      identicalTwoLevel(b_pooled, b_scalar);
    return p;
}

Point
runTwoLevelPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "twolevel";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0xe4c0de ^ (static_cast<uint64_t>(sparsity * 100) << 8) ^
            static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);
    SpGemmOptions opts; // tile_k = 32

    p.scalar_ms = timeMs(reps, [&] {
        TwoLevelBitmapMatrix::encode(a, kWarpTile, opts.tile_k,
                                     Major::Col);
        TwoLevelBitmapMatrix::encode(b, opts.tile_k, kWarpTile,
                                     Major::Row);
    });
    p.word_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, kWarpTile, opts.tile_k, Major::Col,
                           1);
        wordEncodeTwoLevel(b, opts.tile_k, kWarpTile, Major::Row,
                           1);
    });
    p.parallel_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, kWarpTile, opts.tile_k, Major::Col,
                           0);
        wordEncodeTwoLevel(b, opts.tile_k, kWarpTile, Major::Row,
                           0);
    });
    p.gbps = 2.0 * static_cast<double>(size) * size *
             sizeof(float) / (p.word_ms * 1e6);
    p.bitwise_equal =
        identicalTwoLevel(
            wordEncodeTwoLevel(a, kWarpTile, opts.tile_k,
                               Major::Col, 1),
            TwoLevelBitmapMatrix::encode(a, kWarpTile, opts.tile_k,
                                         Major::Col)) &&
        identicalTwoLevel(
            wordEncodeTwoLevel(b, opts.tile_k, kWarpTile,
                               Major::Row, 0),
            TwoLevelBitmapMatrix::encode(b, opts.tile_k, kWarpTile,
                                         Major::Row));
    return p;
}

Point
runRequestPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "request";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0x9e90 ^ static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);

    Session session;
    SessionOptions pooled_opts;
    pooled_opts.resources.encode_workers = 0; // shared pool
    Session pooled(pooled_opts);
    KernelRequest req =
        KernelRequest::gemm(a, b).withMethod(Method::DualSparse);

    // Cold run = word encode + compute (the request latency a fresh
    // operand pays); warm run = the cached-compute part alone.
    std::shared_ptr<const Matrix<float>> d_cold;
    p.word_ms = timeMs(reps, [&] {
        session.encodingCache().clear();
        d_cold = session.run(req).d;
    });
    p.parallel_ms = timeMs(reps, [&] {
        pooled.encodingCache().clear();
        pooled.run(req);
    });
    const double warm_ms =
        timeMs(reps, [&] { session.run(req); });
    SpGemmOptions opts;
    const double scalar_encode_ms = timeMs(reps, [&] {
        TwoLevelBitmapMatrix::encode(a, kWarpTile, opts.tile_k,
                                     Major::Col);
        TwoLevelBitmapMatrix::encode(b, opts.tile_k, kWarpTile,
                                     Major::Row);
    });
    // What the same request cost before the word rebuild: the
    // element-wise encode plus the identical dispatch + compute.
    p.scalar_ms = scalar_encode_ms + warm_ms;

    // The functional output must match a multiply over the scalar
    // encodings exactly.
    SpGemmDevice device(session.config());
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);
    Matrix<float> d_ref =
        device.multiplyEncoded(a_enc, b_enc, opts).d;
    p.bitwise_equal =
        d_cold && d_cold->rows() == d_ref.rows() &&
        std::memcmp(d_cold->data().data(), d_ref.data().data(),
                    d_ref.data().size() * sizeof(float)) == 0;
    return p;
}

Point
runLoweringPoint(int hw, int stride, double sparsity, int reps)
{
    Point p;
    p.kind = "lowering";
    p.m = hw;
    p.stride = stride;
    p.sparsity = sparsity;

    Rng rng(0x10e1 ^ (static_cast<uint64_t>(stride) << 12) ^
            static_cast<uint64_t>(sparsity * 100));
    ConvShape shape;
    shape.batch = 1;
    shape.in_c = 32;
    shape.in_h = shape.in_w = hw;
    shape.out_c = 32;
    shape.kernel = 3;
    shape.stride = stride;
    shape.pad = 1;
    Tensor4d input =
        randomSparseTensor(1, 32, hw, hw, sparsity, rng);
    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);

    LoweredFeatureMap word, scalar;
    p.scalar_ms = timeMs(reps, [&] {
        scalar = im2colFromBitmap(fmap, shape, true, 1, false);
    });
    p.word_ms = timeMs(reps, [&] {
        word = im2colFromBitmap(fmap, shape, true, 1, true);
    });
    p.parallel_ms = timeMs(reps, [&] {
        im2colFromBitmap(fmap, shape, true, 0, true);
    });
    p.gbps = static_cast<double>(shape.loweredRows()) *
             shape.loweredCols() * sizeof(float) /
             (p.word_ms * 1e6);

    p.bitwise_equal = word.cols == scalar.cols;
    for (int j = 0; p.bitwise_equal && j < word.cols; ++j)
        p.bitwise_equal =
            word.columns[j].bits == scalar.columns[j].bits &&
            word.columns[j].values == scalar.columns[j].values &&
            word.columns[j].values_fp16 ==
                scalar.columns[j].values_fp16;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_encode.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_encode", &args))
        return 2;
    const bool quick = args.quick;
    const int reps = args.reps;

    bench::warmProcessState(GpuConfig::v100());

    std::vector<Point> points;
    std::printf("%9s %5s %5s %7s | %9s %9s %9s | %7s %7s\n", "kind",
                "size", "sp", "stride", "scalar ms", "word ms",
                "par ms", "speedup", "GB/s");
    auto emit = [&](Point p) {
        std::printf(
            "%9s %5d %5.2f %7d | %9.3f %9.3f %9.3f | %6.2fx %7.2f%s\n",
            p.kind.c_str(), p.m, p.sparsity, p.stride, p.scalar_ms,
            p.word_ms, p.parallel_ms, p.scalar_ms / p.word_ms,
            p.gbps, p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: word-parallel encode diverges from "
                         "the scalar reference\n");
            std::exit(1);
        }
        points.push_back(std::move(p));
    };

    if (quick) {
        // CI smoke: the headline operating points at a small size.
        emit(runTwoLevelPoint(512, 0.9, reps));
        emit(runRequestPoint(256, 0.9, reps));
        emit(runLoweringPoint(28, 2, 0.9, reps));
    } else {
        // Sparsity axis of the operand-pair encode (the paper's
        // online-encode premise lives or dies here).
        for (double sp : {0.5, 0.7, 0.9, 0.95})
            emit(runTwoLevelPoint(1024, sp, reps));
        // End-to-end dense-request latency, cold encode included.
        emit(runRequestPoint(256, 0.9, reps));
        emit(runRequestPoint(512, 0.9, reps));
        // Strided lowering: the deinterleave vs the per-bit probes.
        for (int stride : {2, 3})
            for (double sp : {0.5, 0.9})
                emit(runLoweringPoint(28, stride, sp, reps));
    }

    // Precision axis: each datatype's value-lane encode, pinned
    // against the scalar encode under the same QuantSpec; the
    // footprint column shows the narrow lanes shrinking the operand
    // pair.
    std::vector<PrecisionPoint> precision;
    std::printf("\n%6s %5s %5s | %9s %10s | %6s\n", "dtype", "size",
                "sp", "word ms", "encoded MB", "equal");
    const int psize = quick ? 256 : 512;
    for (DataType dtype : {DataType::Fp16, DataType::Bf16,
                           DataType::Int8, DataType::Int4}) {
        PrecisionPoint p =
            runEncodePrecisionPoint(psize, 0.9, dtype, reps);
        precision.push_back(p);
        std::printf("%6s %5d %5.2f | %9.3f %10.3f | %6s%s\n",
                    tokenOf(kDataTypes, p.dtype), p.m, p.sparsity,
                    p.word_ms, p.encoded_mb,
                    p.bitwise_equal ? "yes" : "NO",
                    p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: %s word encode diverges from the "
                         "scalar encode\n",
                         tokenOf(kDataTypes, p.dtype));
            std::exit(1);
        }
    }

    bench::BenchJson json("micro_encode", args);
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .text("kind", p.kind)
            .integer("m", p.m)
            .integer("k", p.k)
            .number("sparsity", p.sparsity, 2)
            .integer("stride", p.stride)
            .number("scalar_ms", p.scalar_ms, 3)
            .number("word_ms", p.word_ms, 3)
            .number("parallel_ms", p.parallel_ms, 3)
            .number("gbps", p.gbps, 2)
            .number("speedup_word_vs_scalar", p.scalar_ms / p.word_ms, 2)
            .number("parallel_scaling", p.word_ms / p.parallel_ms, 2)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.array("precision_points", precision,
               [](const PrecisionPoint &p) {
                   return bench::JsonObject()
                       .integer("m", p.m)
                       .integer("k", p.k)
                       .number("sparsity", p.sparsity, 2)
                       .text("dtype", tokenOf(kDataTypes, p.dtype))
                       .number("word_ms", p.word_ms, 3)
                       .number("encoded_mb", p.encoded_mb, 3)
                       .flag("bitwise_equal", p.bitwise_equal);
               });
    json.write();
    return 0;
}
