/**
 * @file
 * Micro-benchmark of the functional dual-sparse convolution
 * pipeline. Each point runs the same layer three ways — the retained
 * pre-word-parallel reference (ConvExecutor::runScalar: per-pixel
 * decode of the lowered map, dense profile extraction, element-wise
 * re-encode), the word-parallel single-thread path (run with
 * num_workers=1: bitmap lowering re-tiled straight into the
 * two-level operand), and the pooled parallel pipeline — across
 * sparsity operating points, layer shapes and lowering modes
 * (stride-1 word extraction vs strided bit gather, single- vs
 * dual-sparse implicit).
 *
 * Results are written as JSON (default BENCH_spconv.json; see the
 * bench_json CMake target) so every PR leaves a perf trajectory and
 * tools/check_bench.py can gate regressions in CI. `--quick` runs a
 * seconds-scale subset. Any bitwise divergence between the three
 * paths is fatal — the bench doubles as an equivalence check.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "conv/spconv.h"
#include "core/thread_pool.h"
#include "model/sparsity_gen.h"
#include "tensor/tensor4d.h"

using namespace dstc;
using bench::timeMs;

namespace {

struct Point
{
    std::string shape_name;
    ConvShape shape;
    ConvMethod method = ConvMethod::DualSparseImplicit;
    double wsp = 0.0, asp = 0.0;
    bool clustered = false; ///< pruned-style blocked weight pattern
    double scalar_ms = 0.0;
    double word_ms = 0.0;
    double parallel_ms = 0.0;
    bool bitwise_equal = false;
};

/** Output values and stats must agree bit for bit. */
bool
identical(const ConvResult &a, const ConvResult &b)
{
    return a.output.size() == b.output.size() &&
           std::memcmp(a.output.data().data(), b.output.data().data(),
                       a.output.size() * sizeof(float)) == 0 &&
           std::memcmp(&a.stats.compute_us, &b.stats.compute_us,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.stats.memory_us, &b.stats.memory_us,
                       sizeof(double)) == 0 &&
           a.stats.mix.ohmma_issued == b.stats.mix.ohmma_issued &&
           a.stats.warp_tiles == b.stats.warp_tiles;
}

Point
runPoint(const char *name, const ConvShape &shape, ConvMethod method,
         double wsp, double asp, int reps, bool clustered = false)
{
    Point p;
    p.shape_name = name;
    p.shape = shape;
    p.method = method;
    p.wsp = wsp;
    p.asp = asp;
    p.clustered = clustered;

    Rng rng(0x5bc0 ^ (static_cast<uint64_t>(wsp * 100) << 8) ^
            static_cast<uint64_t>(asp * 100));
    Tensor4d input = randomSparseTensor(shape.batch, shape.in_c,
                                        shape.in_h, shape.in_w, asp,
                                        rng);
    // Clustered points model pruned weights (blocked non-zeros, the
    // Sec. VI-D pattern that lets the warp-bitmap skip whole tiles).
    Matrix<float> weights =
        clustered ? clusteredSparseMatrix(
                        shape.out_c,
                        static_cast<int>(shape.loweredCols()), wsp,
                        32, 4.0, rng)
                  : randomSparseMatrix(
                        shape.out_c,
                        static_cast<int>(shape.loweredCols()), wsp,
                        rng);

    GpuConfig cfg = GpuConfig::v100();
    ConvExecutor executor(cfg);
    ConvOptions serial;
    serial.num_workers = 1;
    ConvOptions pooled; // num_workers = 0: shared pool

    ConvResult r_scalar, r_word, r_par;
    p.scalar_ms = timeMs(reps, [&] {
        r_scalar =
            executor.runScalar(input, weights, shape, method, serial);
    });
    p.word_ms = timeMs(reps, [&] {
        r_word = executor.run(input, weights, shape, method, serial);
    });
    p.parallel_ms = timeMs(reps, [&] {
        r_par = executor.run(input, weights, shape, method, pooled);
    });

    p.bitwise_equal =
        identical(r_word, r_scalar) && identical(r_par, r_scalar);
    return p;
}

ConvShape
makeShape(int c, int hw, int oc, int stride = 1, int batch = 1)
{
    ConvShape s;
    s.batch = batch;
    s.in_c = c;
    s.in_h = s.in_w = hw;
    s.out_c = oc;
    s.kernel = 3;
    s.stride = stride;
    s.pad = 1;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_spconv.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_spconv", &args))
        return 2;
    const bool quick = args.quick;
    const int reps = args.reps;

    bench::warmProcessState(GpuConfig::v100());

    std::vector<Point> points;
    std::printf("%14s %22s %5s %5s | %9s %9s %9s | %7s %7s\n",
                "shape", "method", "wsp", "asp", "scalar ms",
                "word ms", "par ms", "speedup", "scaling");
    auto emit = [&](const char *name, const ConvShape &s,
                    ConvMethod method, double wsp, double asp,
                    bool clustered = false) {
        Point p =
            runPoint(name, s, method, wsp, asp, reps, clustered);
        points.push_back(p);
        std::printf(
            "%14s %22s %5.2f %5.2f | %9.3f %9.3f %9.3f | %6.2fx "
            "%6.2fx%s\n",
            name, nameOf(kConvMethods, method), wsp, asp, p.scalar_ms,
            p.word_ms, p.parallel_ms, p.scalar_ms / p.word_ms,
            p.word_ms / p.parallel_ms,
            p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: word/parallel conv result differs "
                         "from the scalar reference\n");
            std::exit(1);
        }
    };

    const ConvShape small = makeShape(32, 14, 32);
    const ConvShape mid = makeShape(32, 28, 32);
    const ConvShape wide = makeShape(64, 28, 64);
    const ConvShape strided = makeShape(32, 28, 32, 2);

    if (quick) {
        // CI smoke: one small shape at the mid and headline points.
        for (double sp : {0.8, 0.9})
            emit("conv3x3-14", small, ConvMethod::DualSparseImplicit,
                 sp, sp);
        emit("conv3x3-14-cl", small, ConvMethod::DualSparseImplicit,
             0.9, 0.9, true);
        emit("conv3x3-s2", makeShape(16, 14, 16, 2),
             ConvMethod::DualSparseImplicit, 0.9, 0.9);
    } else {
        // Sparsity axis on the mid shape (dual-side: wsp = asp).
        for (double sp : {0.5, 0.7, 0.8, 0.9, 0.95})
            emit("conv3x3-28", mid, ConvMethod::DualSparseImplicit,
                 sp, sp);
        // Shape axis at the paper's headline 90% operating point.
        emit("conv3x3-14", small, ConvMethod::DualSparseImplicit,
             0.9, 0.9);
        // Pruned-style clustered weights: the warp-bitmap skips
        // whole tiles, which the scalar reference's dense
        // decode/re-encode cannot exploit.
        emit("conv3x3-28-cl", mid, ConvMethod::DualSparseImplicit,
             0.9, 0.9, true);
        emit("conv3x3-28-cl", mid, ConvMethod::DualSparseImplicit,
             0.95, 0.95, true);
        emit("conv3x3-wide", wide, ConvMethod::DualSparseImplicit,
             0.9, 0.9);
        emit("conv3x3-b4", makeShape(16, 14, 16, 1, 4),
             ConvMethod::DualSparseImplicit, 0.9, 0.9);
        // Lowering modes: the strided word-parallel deinterleave
        // (sparsity axis + a stride-3 phase-cycling point) and the
        // single-sparse (dense-activation) implicit pipeline.
        emit("conv3x3-s2", strided, ConvMethod::DualSparseImplicit,
             0.9, 0.9);
        emit("conv3x3-s2", strided, ConvMethod::DualSparseImplicit,
             0.8, 0.8);
        emit("conv3x3-s3", makeShape(32, 28, 32, 3),
             ConvMethod::DualSparseImplicit, 0.9, 0.9);
        emit("conv3x3-28", mid, ConvMethod::SingleSparseImplicit,
             0.9, 0.5);
    }

    bench::BenchJson json("micro_spconv", args);
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .text("shape", p.shape_name)
            .integer("batch", p.shape.batch)
            .integer("in_c", p.shape.in_c)
            .integer("hw", p.shape.in_h)
            .integer("out_c", p.shape.out_c)
            .integer("kernel", p.shape.kernel)
            .integer("stride", p.shape.stride)
            .text("method", nameOf(kConvMethods, p.method))
            .number("wsp", p.wsp, 2)
            .number("asp", p.asp, 2)
            .flag("clustered", p.clustered)
            .number("scalar_ms", p.scalar_ms, 3)
            .number("word_ms", p.word_ms, 3)
            .number("parallel_ms", p.parallel_ms, 3)
            .number("speedup_word_vs_scalar", p.scalar_ms / p.word_ms, 2)
            .number("parallel_scaling", p.word_ms / p.parallel_ms, 2)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.write();
    return 0;
}
