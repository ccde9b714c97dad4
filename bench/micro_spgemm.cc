/**
 * @file
 * Micro-benchmark of the functional dual-sparse SpGEMM pipeline,
 * stage by stage: operand encoding, the tile-loop compute, and the
 * accumulator merge/write-back. Each point is measured three ways —
 * the pre-word-parallel scalar reference (computeTileScalar plus the
 * per-tile copy-out the old pipeline performed), the word-parallel
 * single-thread path, and the pooled parallel tile loop — across
 * sparsity levels, sizes and tile-K shapes.
 *
 * Results are written as JSON (default BENCH_spgemm.json; see the
 * bench_json CMake target) so every PR leaves a perf trajectory to
 * compare against. `--quick` runs a seconds-scale subset for CI.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/datatype.h"
#include "common/rng.h"
#include "core/thread_pool.h"
#include "gemm/spgemm_device.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "tensor/reference.h"

using namespace dstc;
using bench::nowMs;
using bench::timeMs;

namespace {

/**
 * The seed pipeline, reproduced verbatim at bench level: per-tile
 * staging accumulator filled by the scalar per-element warp path,
 * then copied element-by-element into D. Compute and merge
 * (copy-out) stages are timed separately.
 */
Matrix<float>
scalarPipeline(const SpGemmDevice &device,
               const TwoLevelBitmapMatrix &a_enc,
               const TwoLevelBitmapMatrix &b_enc,
               const SpGemmOptions &opts, double *compute_ms,
               double *merge_ms)
{
    const int m = a_enc.rows(), n = b_enc.cols();
    const int tiles_m = a_enc.numTileRows();
    const int tiles_k = a_enc.numTileCols();
    const int tiles_n = b_enc.numTileCols();
    // SpGemmWarpEngine is internal to the device; rebuild one from
    // the same machine description.
    SpGemmWarpEngine engine(device.config());
    Matrix<float> d(m, n);
    *compute_ms = 0.0;
    *merge_ms = 0.0;
    for (int ti = 0; ti < tiles_m; ++ti) {
        for (int tj = 0; tj < tiles_n; ++tj) {
            const int rows = std::min(kWarpTile, m - ti * kWarpTile);
            const int cols = std::min(kWarpTile, n - tj * kWarpTile);
            Matrix<float> accum(rows, cols);
            const double t0 = nowMs();
            for (int tk = 0; tk < tiles_k; ++tk) {
                if (opts.two_level && (!a_enc.tileNonEmpty(ti, tk) ||
                                       !b_enc.tileNonEmpty(tk, tj)))
                    continue;
                engine.computeTileScalar(a_enc.tile(ti, tk),
                                         b_enc.tile(tk, tj), &accum);
            }
            const double t1 = nowMs();
            for (int r = 0; r < rows; ++r)
                for (int c = 0; c < cols; ++c)
                    d.at(ti * kWarpTile + r, tj * kWarpTile + c) =
                        accum.at(r, c);
            const double t2 = nowMs();
            *compute_ms += t1 - t0;
            *merge_ms += t2 - t1;
        }
    }
    return d;
}

struct Point
{
    int m, n, k, tile_k;
    double sparsity;
    double encode_ms = 0.0;
    double scalar_compute_ms = 0.0;
    double scalar_merge_ms = 0.0;
    double word_ms = 0.0;
    double parallel_ms = 0.0;
    bool bitwise_equal = false;
};

/**
 * One (sparsity, datatype) operating point of the precision axis:
 * the simulated kernel time of the functional dual-sparse multiply
 * under that datatype (deterministic, machine-independent — what
 * check_bench.py gates the int8-vs-fp16 advantage on), plus the
 * in-domain bitwise checks: serial == pooled for every datatype, and
 * the integer datatypes == the refGemmQuant golden model.
 */
struct PrecisionPoint
{
    int m, n, k;
    double sparsity;
    DataType dtype;
    double modeled_us = 0.0;
    double encoded_mb = 0.0; ///< dtype-aware operand footprint
    double word_ms = 0.0;    ///< wall clock of the serial multiply
    bool memory_bound = false;
    bool bitwise_equal = false;
};

PrecisionPoint
runPrecisionPoint(int size, double sparsity, DataType dtype, int reps)
{
    PrecisionPoint p;
    p.m = p.n = p.k = size;
    p.sparsity = sparsity;
    p.dtype = dtype;

    // Same seeding as runPoint: the precision axis reuses the
    // operand distribution of the speedup axis.
    Rng rng(0xbe9c << 8 | static_cast<uint64_t>(sparsity * 100));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);

    SpGemmDevice device(GpuConfig::v100());
    SpGemmOptions serial;
    serial.dtype = dtype;
    serial.num_workers = 1;

    SpGemmResult r;
    p.word_ms = timeMs(reps, [&] { r = device.multiply(a, b, serial); });
    p.modeled_us = r.stats.timeUs();
    p.memory_bound = r.stats.bound == Bound::Memory;
    p.encoded_mb =
        (TwoLevelBitmapMatrix::encode(
             a, kWarpTile, serial.tile_k, Major::Col,
             QuantSpec::forValues(dtype, a.data().data(),
                                  a.data().size()))
             .encodedBytes() +
         TwoLevelBitmapMatrix::encode(
             b, serial.tile_k, kWarpTile, Major::Row,
             QuantSpec::forValues(dtype, b.data().data(),
                                  b.data().size()))
             .encodedBytes()) /
        1e6;

    SpGemmOptions pooled = serial;
    pooled.num_workers = 0;
    p.bitwise_equal = device.multiply(a, b, pooled).d.data() ==
                      r.d.data();
    if (dataTypeIsInteger(dtype)) {
        const Matrix<float> golden = refGemmQuant(
            a, b,
            QuantSpec::forValues(dtype, a.data().data(),
                                 a.data().size()),
            QuantSpec::forValues(dtype, b.data().data(),
                                 b.data().size()));
        p.bitwise_equal =
            p.bitwise_equal && r.d.data() == golden.data();
    }
    return p;
}

Point
runPoint(int size, double sparsity, int tile_k, int reps)
{
    Point p;
    p.m = p.n = p.k = size;
    p.tile_k = tile_k;
    p.sparsity = sparsity;

    Rng rng(0xbe9c << 8 | static_cast<uint64_t>(sparsity * 100));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);

    GpuConfig cfg = GpuConfig::v100();
    SpGemmDevice device(cfg);
    SpGemmOptions opts;
    opts.tile_k = tile_k;

    p.encode_ms = timeMs(reps, [&] {
        TwoLevelBitmapMatrix::encode(a, kWarpTile, opts.tile_k,
                                     Major::Col);
        TwoLevelBitmapMatrix::encode(b, opts.tile_k, kWarpTile,
                                     Major::Row);
    });

    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, kWarpTile, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, kWarpTile, Major::Row);

    Matrix<float> d_scalar;
    for (int r = 0; r < reps; ++r) {
        double compute = 0.0, merge = 0.0;
        d_scalar = scalarPipeline(device, a_enc, b_enc, opts,
                                  &compute, &merge);
        if (r == 0 || compute + merge <
                          p.scalar_compute_ms + p.scalar_merge_ms) {
            p.scalar_compute_ms = compute;
            p.scalar_merge_ms = merge;
        }
    }

    SpGemmOptions serial = opts;
    serial.num_workers = 1;
    Matrix<float> d_word;
    p.word_ms = timeMs(reps, [&] {
        d_word = device.multiplyEncoded(a_enc, b_enc, serial).d;
    });

    SpGemmOptions pooled = opts; // num_workers = 0: shared pool
    Matrix<float> d_par;
    p.parallel_ms = timeMs(reps, [&] {
        d_par = device.multiplyEncoded(a_enc, b_enc, pooled).d;
    });

    p.bitwise_equal = d_word.data() == d_scalar.data() &&
                      d_par.data() == d_scalar.data();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_spgemm.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_spgemm", &args))
        return 2;
    const bool quick = args.quick;
    const int reps = args.reps;

    bench::warmProcessState(GpuConfig::v100());

    std::vector<int> sizes = quick ? std::vector<int>{128}
                                   : std::vector<int>{256, 512};
    std::vector<double> sparsities =
        quick ? std::vector<double>{0.8, 0.9}
              : std::vector<double>{0.5, 0.7, 0.8, 0.9, 0.95};

    std::vector<Point> points;
    std::printf(
        "%5s %8s %6s | %9s %14s %9s %9s | %7s %7s\n", "size",
        "sparsity", "tileK", "encode ms", "scalar c+m ms", "word ms",
        "par ms", "speedup", "scaling");
    auto emit = [&](int size, double sp, int tile_k) {
        Point p = runPoint(size, sp, tile_k, reps);
        points.push_back(p);
        const double scalar =
            p.scalar_compute_ms + p.scalar_merge_ms;
        std::printf(
            "%5d %8.2f %6d | %9.3f %7.3f+%6.3f %9.3f %9.3f | %6.2fx "
            "%6.2fx%s\n",
            size, sp, tile_k, p.encode_ms, p.scalar_compute_ms,
            p.scalar_merge_ms, p.word_ms, p.parallel_ms,
            scalar / p.word_ms, p.word_ms / p.parallel_ms,
            p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: word/parallel result differs from "
                         "the scalar reference\n");
            std::exit(1);
        }
    };

    for (int size : sizes)
        for (double sp : sparsities)
            emit(size, sp, 32);
    // Tile-shape axis: vary the two-level K-chunk depth at the
    // paper's headline 90% operating point.
    if (!quick)
        for (int tile_k : {16, 64})
            emit(512, 0.9, tile_k);

    // Precision axis: simulated time and operand footprint of each
    // datatype at the headline operating point (the int8-vs-fp16
    // advantage check_bench.py gates lives here).
    std::vector<PrecisionPoint> precision;
    std::printf("\n%5s %8s %6s | %11s %11s %9s | %6s %6s\n", "size",
                "sparsity", "dtype", "modeled us", "encoded MB",
                "word ms", "bound", "equal");
    const int psize = quick ? 128 : 512;
    const std::vector<double> psparsities =
        quick ? std::vector<double>{0.9}
              : std::vector<double>{0.5, 0.9};
    for (double sp : psparsities) {
        for (DataType dtype :
             {DataType::Fp16, DataType::Bf16, DataType::Int8,
              DataType::Int4}) {
            PrecisionPoint p =
                runPrecisionPoint(psize, sp, dtype, reps);
            precision.push_back(p);
            std::printf("%5d %8.2f %6s | %11.3f %11.3f %9.3f | %6s "
                        "%6s%s\n",
                        p.m, p.sparsity, tokenOf(kDataTypes, p.dtype),
                        p.modeled_us, p.encoded_mb, p.word_ms,
                        p.memory_bound ? "mem" : "comp",
                        p.bitwise_equal ? "yes" : "NO",
                        p.bitwise_equal ? "" : "  [MISMATCH]");
            if (!p.bitwise_equal) {
                std::fprintf(stderr,
                             "FATAL: %s path broke its in-domain "
                             "bitwise guarantee\n",
                             tokenOf(kDataTypes, p.dtype));
                std::exit(1);
            }
        }
    }

    bench::BenchJson json("micro_spgemm", args);
    json.array("points", points, [](const Point &p) {
        const double scalar_total =
            p.scalar_compute_ms + p.scalar_merge_ms;
        return bench::JsonObject()
            .integer("m", p.m)
            .integer("n", p.n)
            .integer("k", p.k)
            .integer("tile_k", p.tile_k)
            .number("sparsity", p.sparsity, 2)
            .number("encode_ms", p.encode_ms, 3)
            .number("scalar_compute_ms", p.scalar_compute_ms, 3)
            .number("scalar_merge_ms", p.scalar_merge_ms, 3)
            .number("word_ms", p.word_ms, 3)
            .number("parallel_ms", p.parallel_ms, 3)
            .number("speedup_word_vs_scalar", scalar_total / p.word_ms,
                    2)
            .number("parallel_scaling", p.word_ms / p.parallel_ms, 2)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.array("precision_points", precision,
               [](const PrecisionPoint &p) {
                   return bench::JsonObject()
                       .integer("m", p.m)
                       .integer("n", p.n)
                       .integer("k", p.k)
                       .number("sparsity", p.sparsity, 2)
                       .text("dtype", tokenOf(kDataTypes, p.dtype))
                       .number("modeled_us", p.modeled_us, 3)
                       .number("encoded_mb", p.encoded_mb, 3)
                       .number("word_ms", p.word_ms, 3)
                       .flag("memory_bound", p.memory_bound)
                       .flag("bitwise_equal", p.bitwise_equal);
               });
    json.write();
    return 0;
}
