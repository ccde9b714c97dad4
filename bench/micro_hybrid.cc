/**
 * @file
 * Micro-benchmark of the density-partitioned hybrid dispatcher
 * against the best single backend on the same request. Each point is
 * a functional GEMM whose A operand stripes fully dense and
 * near-empty 32-row tile groups at a controlled mix fraction, with a
 * uniform-sparsity B or a 2:4-conformant B (where the ampere path
 * becomes admissible and the intra-request split beats every
 * wholesale backend). The hybrid run is compared on simulated kernel
 * time against every single-backend candidate run timing-only over
 * the same concrete operands (gemm_options.functional = false: the
 * stats come from the identical cached profiles, without the
 * functional matrix work), and each hybrid tile class is checked
 * bitwise against its routed backend's full-request functional
 * output (row stripes depend only on their own A rows, so equality
 * is exact, not approximate).
 *
 * Results are written as JSON (default BENCH_hybrid.json; see the
 * bench_json CMake target). `--quick` runs a seconds-scale subset
 * for CI — small degenerate points plus the one compute-bound
 * 1024^3 mixed point whose natural split is the headline win; the
 * check_bench.py hybrid gate requires ratio_vs_best to stay >= 1
 * everywhere and materially above 1 at the mixed reference point.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/hybrid.h"
#include "core/session.h"
#include "model/pruning.h"
#include "tensor/matrix.h"

using namespace dstc;
using bench::timeMs;

namespace {

// Fully dense stripes against near-empty ones: the dual-side kernel
// wins any unstructured sparsity (the paper's Fig. 21 claim holds
// per class too), so the partition pays off exactly where some tile
// rows have no sparsity to exploit.
constexpr double kDenseGroupSparsity = 0.0;
constexpr double kSparseGroupSparsity = 0.98;

/**
 * A with `quarters` of every four 32-row tile groups near-dense and
 * the rest near-empty — interleaved, so the partition must read
 * per-group density rather than position.
 */
Matrix<float>
stripedA(int m, int k, int quarters, Rng &rng)
{
    Matrix<float> a(m, k);
    for (int r = 0; r < m; ++r) {
        const bool dense_group = (r / 32) % 4 < quarters;
        const double density = 1.0 - (dense_group
                                          ? kDenseGroupSparsity
                                          : kSparseGroupSparsity);
        for (int c = 0; c < k; ++c) {
            if (rng.bernoulli(density)) {
                const float v = rng.uniformFloat(-1.0f, 1.0f);
                a.at(r, c) = (v == 0.0f) ? 0.5f : v;
            }
        }
    }
    return a;
}

struct Point
{
    double mix = 0.0; // fraction of near-dense tile row groups
    double b_sparsity = 0.0;
    std::string b_kind; // "uniform" or "2of4"
    int m = 0, n = 0, k = 0;
    double hybrid_us = 0.0;
    double best_single_us = 0.0;
    std::string best_single;
    double ratio_vs_best = 0.0;
    std::string routing; // merged kernel name, e.g. hybrid[dense:8+dual:24]
    double threshold = -1.0;
    double hybrid_ms = 0.0;  // wall clock of the hybrid run
    double singles_ms = 0.0; // wall clock of all single-backend runs
    bool bitwise_equal = false;
};

/** Per-class bitwise check: every row stripe of the hybrid output
 *  must equal the routed backend's full-request output rows. */
bool
classStripesMatch(const HybridSplit &split, const Matrix<float> &hyb,
                  const std::map<Method, Matrix<float>> &singles)
{
    for (const HybridClass &cls : split.classes) {
        const auto it = singles.find(cls.method);
        if (it == singles.end())
            return false;
        const Matrix<float> &pure = it->second;
        for (int g : cls.groups) {
            const int r0 = g * 32;
            const int r1 = std::min(hyb.rows(), r0 + 32);
            for (int r = r0; r < r1; ++r)
                for (int c = 0; c < hyb.cols(); ++c)
                    if (hyb.at(r, c) != pure.at(r, c))
                        return false;
        }
    }
    return true;
}

Point
runPoint(Session &session, int m, int n, int k, int quarters,
         double b_sparsity, bool conformant_b, int reps)
{
    Point p;
    p.mix = quarters / 4.0;
    p.b_sparsity = b_sparsity;
    p.b_kind = conformant_b ? "2of4" : "uniform";
    p.m = m;
    p.n = n;
    p.k = k;

    Rng rng(0x4b1d << 8 | (quarters * 16 + conformant_b * 8) |
            static_cast<uint64_t>(b_sparsity * 4));
    Matrix<float> a = stripedA(m, k, quarters, rng);
    Matrix<float> b =
        conformant_b
            ? prune2of4(randomSparseMatrix(k, n, 0.0, rng))
            : randomSparseMatrix(k, n, b_sparsity, rng);

    KernelRequest hybrid_req = KernelRequest::gemm(a, b);
    hybrid_req.method = Method::Hybrid;

    KernelReport hyb;
    p.hybrid_ms = timeMs(reps, [&] { hyb = session.run(hybrid_req); });
    p.hybrid_us = hyb.timeUs();
    p.routing = hyb.stats.name;

    PlanContext ctx;
    ctx.cfg = &session.config();
    ctx.cache = &session.encodingCache();
    ctx.registry = &session.registry();
    const HybridSplit split = planHybridSplit(hybrid_req, ctx);
    p.threshold = split.threshold;

    // The ratio denominator: every single-backend candidate over the
    // same concrete operands, timing-only — the simulated stats come
    // from the identical cached profiles the functional run would
    // use, without paying its wall-clock.
    std::vector<Method> candidates = {Method::DualSparse,
                                      Method::Dense,
                                      Method::CusparseLike};
    if (conformant2of4(b))
        candidates.push_back(Method::AmpereSparse);
    p.best_single_us = 0.0;
    for (Method method : candidates) {
        KernelRequest req = KernelRequest::gemm(a, b);
        req.method = method;
        req.gemm_options.functional = false;
        KernelReport report;
        p.singles_ms += timeMs(1, [&] { report = session.run(req); });
        const double us = report.timeUs();
        if (p.best_single.empty() || us < p.best_single_us) {
            p.best_single_us = us;
            p.best_single = tokenOf(kMethods, method);
        }
    }

    // The per-class bitwise references: only the backends the split
    // actually routed to need a functional wholesale run.
    std::map<Method, Matrix<float>> single_d;
    for (const HybridClass &cls : split.classes) {
        if (single_d.count(cls.method))
            continue;
        KernelRequest req = KernelRequest::gemm(a, b);
        req.method = cls.method;
        KernelReport report;
        p.singles_ms += timeMs(1, [&] { report = session.run(req); });
        if (report.d)
            single_d.emplace(cls.method, *report.d);
    }

    p.ratio_vs_best = p.best_single_us / p.hybrid_us;
    p.bitwise_equal =
        hyb.d != nullptr && classStripesMatch(split, *hyb.d, single_d);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_hybrid.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_hybrid", &args))
        return 2;

    bench::warmProcessState(GpuConfig::v100());
    Session session;

    std::vector<Point> points;
    std::printf("%4s %6s %8s %14s | %10s %10s %9s %6s | %s\n", "mix",
                "b sp", "b kind", "shape", "hybrid us", "best us",
                "best", "ratio", "routing");
    auto emit = [&](int m, int n, int k, int quarters, double sb,
                    bool conformant) {
        Point p = runPoint(session, m, n, k, quarters, sb, conformant,
                           args.reps);
        points.push_back(p);
        std::printf("%4.2f %6.2f %8s %4dx%4dx%4d | %10.2f %10.2f "
                    "%9s %5.2fx | %s%s\n",
                    p.mix, p.b_sparsity, p.b_kind.c_str(), p.m, p.n,
                    p.k, p.hybrid_us, p.best_single_us,
                    p.best_single.c_str(), p.ratio_vs_best,
                    p.routing.c_str(),
                    p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: a hybrid tile class differs from "
                         "its routed backend's reference rows\n");
            std::exit(1);
        }
    };

    // The split pays off where the request is compute-bound (every
    // per-class slice re-reads the full B, so memory-bound shapes
    // prefer one condensed pass) and where the dense stripes admit a
    // backend that beats dual-side on zero-sparsity tiles — the 2:4
    // path on a conformant B. That is the 1024^3 2:4 mixed region;
    // smaller shapes and uniform-B points degenerate to wholesale
    // delegation (ratio exactly 1) and prove the planner refuses
    // unprofitable splits.
    if (args.quick) {
        // Degenerate + no-split coverage at the cheap 512^3 face,
        // plus the one compute-bound mixed point whose natural split
        // is the headline win (same operating key as the full
        // sweep's reference point).
        for (int quarters : {0, 2, 4})
            emit(512, 512, 512, quarters, 0.7, false);
        emit(512, 512, 512, 2, 0.0, true);
        emit(1024, 1024, 1024, 3, 0.0, true);
    } else {
        const std::vector<int> mixes = {0, 1, 2, 3, 4};
        for (int quarters : mixes)
            for (double sb : {0.5, 0.7})
                emit(1024, 1024, 1024, quarters, sb, false);
        // The 2:4-conformant B axis: ampere joins the candidate set,
        // so fully dense classes route to the 2:4 path while the
        // near-empty ones stay on the dual-sparse kernel — the
        // region where the intra-request split beats every wholesale
        // backend.
        for (int quarters : mixes)
            emit(1024, 1024, 1024, quarters, 0.0, true);
    }

    bench::BenchJson json(
        "micro_hybrid", args,
        "wall-clock ratios and parallel_scaling ~ 1.0 reflect the "
        "single-hardware-thread bench container; simulated *_us fields "
        "are machine-independent");
    json.array("points", points, [](const Point &p) {
        return bench::JsonObject()
            .number("mix", p.mix, 2)
            .number("b_sparsity", p.b_sparsity, 2)
            .text("b_kind", p.b_kind)
            .integer("m", p.m)
            .integer("n", p.n)
            .integer("k", p.k)
            .number("hybrid_us", p.hybrid_us, 4)
            .number("best_single_us", p.best_single_us, 4)
            .text("best_single", p.best_single)
            .number("ratio_vs_best", p.ratio_vs_best, 4)
            .text("routing", p.routing)
            .number("threshold", p.threshold, 4)
            .number("hybrid_ms", p.hybrid_ms, 3)
            .number("singles_ms", p.singles_ms, 3)
            .flag("bitwise_equal", p.bitwise_equal);
    });
    json.write();
    return 0;
}
