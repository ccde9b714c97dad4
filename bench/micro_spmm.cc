/**
 * @file
 * Micro-benchmark of the SpMM path (sparse A x dense B) over the
 * checked-in real-matrix corpus (the .mtx files in corpus/: GNN
 * adjacency and SuiteSparse-style stand-ins at 99%+ sparsity). Each
 * corpus matrix
 * is run at N = 32 through
 *
 *  - the narrow-tile (8x1) format, forced (the tentpole kernel);
 *  - the 32-wide two-level format, forced (the DNN-regime format);
 *  - the cusparse-like CSR baseline;
 *  - the dense backend, timing-only (the error-bounded floor);
 *  - Auto format selection (the plan-stage cost model's pick).
 *
 * Functional outputs are pinned bitwise: the narrow kernel must equal
 * the scalar refSpmmNarrow reference, the wide kernel, and the CSR
 * baseline (all accumulate ascending-k over identically quantized
 * operands), and the narrow kernel must be bitwise stable across
 * worker counts {1, 2, 4, 7}. The check_bench.py spmm gate requires
 * the corpus-median narrow-vs-wide ratio to stay >= 2x on the
 * reference sweep, Auto selection to stay within 5% of the better
 * format everywhere, and the selected dual kernel to never lose to
 * the cusparse-like baseline.
 *
 * Results are written as JSON (default BENCH_spmm.json; see the
 * bench_json CMake target). `--quick` runs two matrices that cover
 * both sides of the format crossover (scattered: narrow wins;
 * banded: wide wins). `--corpus DIR` points at the .mtx directory
 * (default: ./corpus).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/session.h"
#include "gemm/spmm_device.h"
#include "sparse/mtx_io.h"
#include "tensor/matrix.h"

using namespace dstc;
using bench::timeMs;

namespace {

constexpr int kN = 32; // dense B columns (GNN feature width)
const int kWorkerCounts[] = {1, 2, 4, 7};

struct Point
{
    std::string matrix; // corpus file stem
    int m = 0, k = 0, n = kN;
    int64_t nnz = 0;
    double density = 0.0;
    double narrow_us = 0.0;
    double wide_us = 0.0;
    double cusparse_us = 0.0;
    double dense_us = 0.0;
    double selected_us = 0.0;
    std::string selected_kernel; // reveals the chosen format
    double narrow_vs_wide = 0.0;      // wide / narrow
    double cusparse_vs_selected = 0.0; // cusparse / selected
    bool bitwise_equal = false;         // narrow == ref == wide == csr
    bool workers_bitwise_equal = false; // narrow stable over workers
    double wall_ms = 0.0;
};

bool
sameMatrix(const Matrix<float> &x, const Matrix<float> &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return false;
    for (int r = 0; r < x.rows(); ++r)
        for (int c = 0; c < x.cols(); ++c)
            if (x.at(r, c) != y.at(r, c))
                return false;
    return true;
}

Point
runPoint(Session &session, const std::string &path, int reps)
{
    Point p;
    p.matrix = std::filesystem::path(path).stem().string();

    Matrix<float> a;
    std::string error;
    if (!loadMatrixMarket(path, &a, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        std::exit(1);
    }
    p.m = a.rows();
    p.k = a.cols();
    p.nnz = a.nnz();
    p.density = 1.0 - a.sparsity();

    // One dense B per matrix, seeded off nothing machine-dependent.
    Rng rng(0x517a * static_cast<uint64_t>(a.rows() + a.nnz()));
    Matrix<float> b = randomSparseMatrix(a.cols(), kN, 0.0, rng);

    auto request = [&] { return KernelRequest::spmm(a, b); };

    KernelReport narrow;
    p.wall_ms += timeMs(reps, [&] {
        narrow = session.run(request()
                                 .withMethod(Method::DualSparse)
                                 .withSpmmFormat(SpmmFormat::Narrow));
    });
    p.narrow_us = narrow.timeUs();

    KernelReport wide;
    p.wall_ms += timeMs(reps, [&] {
        wide = session.run(request()
                               .withMethod(Method::DualSparse)
                               .withSpmmFormat(SpmmFormat::Wide));
    });
    p.wide_us = wide.timeUs();

    KernelReport csr;
    p.wall_ms += timeMs(reps, [&] {
        csr = session.run(request().withMethod(Method::CusparseLike));
    });
    p.cusparse_us = csr.timeUs();

    // Dense floor, timing-only: a functional m x k x n dense multiply
    // is wall-clock-expensive and its output is error-bounded rather
    // than bitwise, so it contributes a simulated time and nothing
    // else.
    KernelReport dense;
    p.wall_ms += timeMs(reps, [&] {
        dense = session.run(request()
                                .withMethod(Method::Dense)
                                .withFunctional(false));
    });
    p.dense_us = dense.timeUs();

    // Auto selection, timing-only: the kernel name in the stats
    // reveals which format the plan-stage cost model picked.
    KernelReport selected;
    p.wall_ms += timeMs(reps, [&] {
        selected = session.run(request()
                                   .withMethod(Method::DualSparse)
                                   .withFunctional(false));
    });
    p.selected_us = selected.timeUs();
    p.selected_kernel = selected.stats.name;

    p.narrow_vs_wide = p.wide_us > 0.0 ? p.wide_us / p.narrow_us : 0.0;
    p.cusparse_vs_selected =
        p.selected_us > 0.0 ? p.cusparse_us / p.selected_us : 0.0;

    // The bitwise pin: every functional SpMM path accumulates each
    // output cell ascending-k from identically quantized operands,
    // so narrow == scalar reference == wide == csr exactly.
    const Matrix<float> ref = refSpmmNarrow(a, b, DataType::Fp16);
    p.bitwise_equal = narrow.d && wide.d && csr.d &&
                      sameMatrix(*narrow.d, ref) &&
                      sameMatrix(*wide.d, ref) &&
                      sameMatrix(*csr.d, ref);

    // Worker-count stability: the word-parallel encoder and the
    // strip-partitioned kernel must be bitwise deterministic. One
    // fresh Session per worker count, so each one encodes too.
    p.workers_bitwise_equal = narrow.d != nullptr;
    for (int w : kWorkerCounts) {
        SessionOptions opts;
        opts.resources = {.compute_workers = w, .encode_workers = w};
        Session workers(opts);
        KernelReport r;
        p.wall_ms += timeMs(1, [&] {
            r = workers.run(request()
                                .withMethod(Method::DualSparse)
                                .withSpmmFormat(SpmmFormat::Narrow)
                                .withSeed(static_cast<uint64_t>(w)));
        });
        if (!r.d || !sameMatrix(*r.d, ref))
            p.workers_bitwise_equal = false;
    }
    return p;
}

/** bench_util's common flags plus --corpus DIR. */
struct SpmmArgs : bench::BenchArgs
{
    const char *corpus = "corpus";
};

bool
parseArgs(int argc, char **argv, SpmmArgs *args)
{
    // Strip --corpus before handing the rest to the shared parser.
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--corpus") && i + 1 < argc)
            args->corpus = argv[++i];
        else
            rest.push_back(argv[i]);
    }
    return bench::parseBenchArgs(static_cast<int>(rest.size()),
                                 rest.data(), "micro_spmm [--corpus "
                                              "DIR]",
                                 args);
}

} // namespace

int
main(int argc, char **argv)
{
    SpmmArgs args;
    args.out = "BENCH_spmm.json";
    if (!parseArgs(argc, argv, &args))
        return 2;

    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(args.corpus, ec))
        if (entry.path().extension() == ".mtx")
            files.push_back(entry.path().string());
    if (ec || files.empty()) {
        std::fprintf(stderr,
                     "error: no .mtx files under '%s' (run "
                     "tools/gen_corpus.py, or pass --corpus DIR)\n",
                     args.corpus);
        return 2;
    }
    std::sort(files.begin(), files.end());
    if (args.quick) {
        // One matrix from each side of the format crossover:
        // scattered (narrow wins) and banded (wide wins) — the pair
        // exercises both kernels and both cost-model outcomes.
        std::vector<std::string> subset;
        for (const std::string &f : files)
            if (f.find("cora") != std::string::npos ||
                f.find("stencil") != std::string::npos)
                subset.push_back(f);
        if (!subset.empty())
            files = subset;
        else
            files.resize(1);
    }

    bench::warmProcessState(GpuConfig::v100());
    Session session;

    std::vector<Point> points;
    std::printf("%-14s %11s %8s | %8s %8s %8s %8s | %6s %-18s\n",
                "matrix", "shape", "density", "narrow", "wide",
                "csr", "auto", "nar/wid", "selected kernel");
    for (const std::string &path : files) {
        Point p = runPoint(session, path, args.reps);
        points.push_back(p);
        std::printf("%-14s %5dx%5d %7.3f%% | %8.2f %8.2f %8.2f "
                    "%8.2f | %5.2fx %-18s%s%s\n",
                    p.matrix.c_str(), p.m, p.k, p.density * 100.0,
                    p.narrow_us, p.wide_us, p.cusparse_us,
                    p.selected_us, p.narrow_vs_wide,
                    p.selected_kernel.c_str(),
                    p.bitwise_equal ? "" : "  [MISMATCH]",
                    p.workers_bitwise_equal ? "" : "  [WORKER DRIFT]");
        if (!p.bitwise_equal || !p.workers_bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: an SpMM path diverged from the "
                         "scalar narrow-tile reference\n");
            std::exit(1);
        }
    }

    bench::BenchJson json("micro_spmm", args,
                          "*_us fields are simulated and "
                          "machine-independent; wall_ms is the only "
                          "wall-clock field");
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .text("matrix", p.matrix)
            .integer("m", p.m)
            .integer("k", p.k)
            .integer("n", p.n)
            .integer("nnz", p.nnz)
            .number("density", p.density, 6)
            .number("narrow_us", p.narrow_us, 4)
            .number("wide_us", p.wide_us, 4)
            .number("cusparse_us", p.cusparse_us, 4)
            .number("dense_us", p.dense_us, 4)
            .number("selected_us", p.selected_us, 4)
            .text("selected_kernel", p.selected_kernel)
            .number("narrow_vs_wide", p.narrow_vs_wide, 4)
            .number("cusparse_vs_selected", p.cusparse_vs_selected, 4)
            .flag("bitwise_equal", p.bitwise_equal)
            .flag("workers_bitwise_equal", p.workers_bitwise_equal)
            .number("wall_ms", p.wall_ms, 3);
    });
    json.write();
    return 0;
}
