/**
 * @file
 * The paper's evaluation in one driver: every figure, table and
 * ablation the reproduction prints is one row of kFigures.
 *
 *   paper_figures NAME...   run the named figures, in argument order
 *   paper_figures all       run every figure, in table order
 *
 * With no argument or an unknown name it prints the usage generated
 * from the table and exits 2. Each figure prints its human table and
 * the paper's numbers beside it; every time is the modeled device
 * clock (deterministic per seed) except Table III, which times the
 * three im2col implementations on the host.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/session.h"
#include "gemm/spgemm_warp.h"
#include "hwmodel/area_power.h"
#include "hwmodel/energy_model.h"
#include "im2col/bitmap_im2col.h"
#include "im2col/csr_im2col.h"
#include "im2col/dense_im2col.h"
#include "isa/program_builder.h"
#include "model/runner.h"
#include "model/sparsity_gen.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "timing/accum_buffer.h"

using namespace dstc;

namespace {

// -- helpers shared by several figures --------------------------------

/** Dual-side SpGEMM stats of a profile or concrete-operand request. */
KernelStats
dualStats(Session &session, KernelRequest req,
          const SpGemmOptions &options = {})
{
    req.method = Method::DualSparse;
    req.gemm_options = options;
    return session.run(req).stats;
}

/** Modeled time of an n^3 GEMM under @p method at a synthetic
 *  (A, B) sparsity point. */
double
squareGemmUs(Session &session, Method method, int64_t n,
             double a_sparsity = 0.0, double b_sparsity = 0.0)
{
    return session
        .run(KernelRequest::gemm(n, n, n, a_sparsity, b_sparsity)
                 .withMethod(method))
        .timeUs();
}

/** Print the paper's comparison line under a figure (none if null). */
void
paperNote(const char *note)
{
    if (note)
        std::printf("\n%s\n", note);
}

// -- Fig. 5 / Fig. 15 --------------------------------------------------

/**
 * Warp-level OHMMA skipping: the running example (Av column with
 * 20/32 non-zeros, Bv row with 11/32 -> 5 of 8 OHMMA steps skipped,
 * 8/3 = 2.67x) and the quantized sparsity grid the predication logic
 * sees, then the realized issue cycles on random warp tiles.
 */
void
fig5WarpSkipping()
{
    std::printf("== Fig. 5: SpGEMM in a warp — OHMMA skipping ==\n\n");

    const int example = enabledOhmmas(20, 11);
    std::printf("paper example: popc(Av)=20, popc(Bv)=11 -> "
                "%d of 8 OHMMAs issued (%d skipped), theoretical "
                "speedup %.2fx (paper: 3 issued, 2.67x)\n\n",
                example, 8 - example, 8.0 / example);

    TextTable table;
    table.setHeader({"Av nnz/32", "Bv nnz/32", "OHMMAs issued",
                     "skipped", "speedup vs dense"});
    for (int na : {0, 4, 8, 12, 16, 20, 24, 28, 32}) {
        for (int nb : {0, 8, 16, 24, 32}) {
            const int issued = enabledOhmmas(na, nb);
            table.addRow(
                {std::to_string(na), std::to_string(nb),
                 std::to_string(issued), std::to_string(8 - issued),
                 issued == 0 ? "inf"
                             : fmtSpeedup(8.0 / issued, 2)});
        }
    }
    table.print();

    std::printf("\n== Realized issue cycles on random 32x32x32 warp "
                "tiles ==\n\n");
    SpGemmWarpEngine engine(GpuConfig::v100());
    TextTable realized;
    realized.setHeader({"A sparsity", "B sparsity", "issue cycles",
                        "dense cycles", "speedup"});
    Rng rng(42);
    const int64_t dense_cycles = 32 * 8 + 32; // OHMMAs + BOHMMAs
    for (double sa : {0.0, 0.25, 0.5, 0.75, 0.9}) {
        for (double sb : {0.0, 0.5, 0.9}) {
            Matrix<float> a = randomSparseMatrix(32, 32, sa, rng);
            Matrix<float> b = randomSparseMatrix(32, 32, sb, rng);
            WarpTileResult r = engine.computeTile(
                BitmapMatrix::encode(a, Major::Col),
                BitmapMatrix::encode(b, Major::Row), nullptr);
            realized.addRow(
                {fmtDouble(sa, 2), fmtDouble(sb, 2),
                 std::to_string(r.issue_cycles),
                 std::to_string(dense_cycles),
                 fmtSpeedup(static_cast<double>(dense_cycles) /
                            std::max<int64_t>(1, r.issue_cycles))});
        }
    }
    realized.print();
}

// -- Fig. 6 -------------------------------------------------------------

/**
 * Speedup beyond the quantized warp ratios: a 37.5%-sparse B spread
 * uniformly gives every warp > 50% B occupancy (no speedup), while a
 * clustered one leaves some warps lighter and recovers ~1.3x.
 */
void
fig6Tiling()
{
    Session session;
    Rng rng(6);
    const int n = 1024;
    SpGemmOptions timing;
    timing.functional = false;
    auto computeUs = [&](const Matrix<float> &a,
                         const Matrix<float> &b) {
        return dualStats(session, KernelRequest::gemm(a, b), timing)
            .compute_us;
    };

    std::printf("== Fig. 6: uneven non-zero distribution unlocks "
                "speedup beyond the quantized ratios ==\n\n");

    // Dense baseline at the same shape (compute side).
    Matrix<float> dense_a = randomSparseMatrix(n, n, 0.0, rng);
    Matrix<float> dense_b = randomSparseMatrix(n, n, 0.0, rng);
    const double dense_us = computeUs(dense_a, dense_b);

    TextTable table;
    table.setHeader({"B distribution (37.5% sparsity)",
                     "compute time (us)", "speedup vs dense"});
    Matrix<float> a = randomSparseMatrix(n, n, 0.0, rng);

    Matrix<float> b_uniform = uniformSparseMatrix(n, n, 0.375, rng);
    const double uniform_us = computeUs(a, b_uniform);
    table.addRow({"uniform", fmtDouble(uniform_us, 1),
                  fmtSpeedup(dense_us / uniform_us)});

    for (double cluster : {1.5, 2.0, 2.66}) {
        Matrix<float> b_clustered =
            clusteredSparseMatrix(n, n, 0.375, 32, cluster, rng);
        const double t = computeUs(a, b_clustered);
        char label[64];
        std::snprintf(label, sizeof(label), "clustered (x%.2f local)",
                      cluster);
        table.addRow({label, fmtDouble(t, 1),
                      fmtSpeedup(dense_us / t)});
    }
    table.print();
    paperNote("paper example: 37.5% sparsity row -> 1.3x once warps "
              "are unevenly loaded; uniform -> ~1x because every "
              "32-wide B row still needs both 16-chunks");
}

// -- Fig. 19 ------------------------------------------------------------

/**
 * Accumulation-buffer merge cycles with and without the operand
 * collector: the figure's 3-instruction schedule, then the bank
 * simulator on the writeback traces of real warp tiles.
 */
void
fig19OperandCollector()
{
    std::printf("== Fig. 19: operand collector ablation ==\n\n");

    // The illustrative schedule: three instructions, each fully
    // conflicted internally, disjoint across banks (4 ports).
    {
        MergeTrace trace;
        trace.instr_addrs.push_back({0, 4, 8});
        trace.instr_addrs.push_back({1, 5, 9});
        trace.instr_addrs.push_back({2, 6, 10});
        AccumBufferSim without_oc(4, false, 8);
        AccumBufferSim with_oc(4, true, 8);
        std::printf("figure example (3 instrs, 4 ports): without OC "
                    "%lld cycles, with OC %lld cycles (paper: 7 -> "
                    "4-ish)\n\n",
                    static_cast<long long>(
                        without_oc.simulateSparse(trace)),
                    static_cast<long long>(
                        with_oc.simulateSparse(trace)));
    }

    GpuConfig with_cfg = GpuConfig::v100();
    GpuConfig without_cfg = with_cfg;
    without_cfg.operand_collector = false;
    SpGemmWarpEngine with_engine(with_cfg);
    SpGemmWarpEngine without_engine(without_cfg);

    TextTable table;
    table.setHeader({"tile sparsity (A=B)", "merge cycles w/o OC",
                     "merge cycles w/ OC", "OC speedup",
                     "issue cycles (for overlap)"});
    Rng rng(19);
    for (double sparsity : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        Matrix<float> a = randomSparseMatrix(32, 32, sparsity, rng);
        Matrix<float> b = randomSparseMatrix(32, 32, sparsity, rng);
        BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
        BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
        WarpTileResult without = without_engine.computeTile(
            a_bm, b_bm, nullptr, /*detailed_merge=*/true);
        WarpTileResult with = with_engine.computeTile(
            a_bm, b_bm, nullptr, /*detailed_merge=*/true);
        table.addRow(
            {fmtDouble(sparsity, 2),
             std::to_string(without.merge_cycles),
             std::to_string(with.merge_cycles),
             fmtSpeedup(static_cast<double>(without.merge_cycles) /
                        std::max<int64_t>(1, with.merge_cycles)),
             std::to_string(with.issue_cycles)});
    }
    table.print();
    paperNote("With the collector the merge stays at or below the "
              "issue rate, so it overlaps; without it the merge "
              "serializes and becomes the bottleneck (Sec. V-B2).");
}

// -- Fig. 21 ------------------------------------------------------------

/** Dual-side SpGEMM rows over an (A, B) sparsity grid, in percent;
 *  A's cluster factor is @p cluster except at A = 0. */
void
addSpgemmRows(Session &session, TextTable &table, int64_t n,
              double dense_us, double sa, double sb, double cluster,
              Rng &rng)
{
    SparsityProfile pa = SparsityProfile::randomA(
        n, n, 32, 1.0 - sa / 100.0, sa > 0.0 ? cluster : 1.0, rng);
    SparsityProfile pb = SparsityProfile::randomA(
        n, n, 32, 1.0 - sb / 100.0, cluster, rng);
    KernelStats stats = dualStats(session, KernelRequest::gemm(pa, pb));
    table.addRow({fmtDouble(sa, 1), fmtDouble(sb, 1),
                  fmtDouble(stats.timeUs(), 0),
                  fmtSpeedup(dense_us / stats.timeUs()),
                  stats.bound == Bound::Compute ? "compute" : "memory"});
}

/**
 * SpGEMM time on 4096^3 across the (A sparsity x B sparsity) grid
 * for CUTLASS (the 1x line), Sparse TC [72] (the fixed ~1.86x line),
 * cuSparse (B fixed at 99%) and the dual-side design.
 */
void
fig21Spgemm()
{
    constexpr int64_t kN = 4096;
    Session session;
    const double dense_us = squareGemmUs(session, Method::Dense, kN);
    const double zhu_us =
        squareGemmUs(session, Method::ZhuSparse, kN, 0.0, 0.75);

    std::printf("== Fig. 21: SpGEMM on %lldx%lldx%lld ==\n\n",
                static_cast<long long>(kN), static_cast<long long>(kN),
                static_cast<long long>(kN));
    std::printf("CUTLASS (dense baseline): %.0f us\n", dense_us);
    std::printf("Sparse Tensor Core [72]:  %.0f us (%.2fx, fixed)\n\n",
                zhu_us, dense_us / zhu_us);

    // cuSparse series: B at 99%, A from 90% to 99.9% (the paper notes
    // it is far too slow below 90%).
    std::printf("-- cuSparse (B sparsity fixed at 99%%) --\n");
    TextTable cusparse;
    cusparse.setHeader(
        {"A sparsity (%)", "time (us)", "speedup vs CUTLASS"});
    for (double sa : {90.0, 95.0, 99.0, 99.9}) {
        const double t = squareGemmUs(session, Method::CusparseLike, kN,
                                      1.0 - (1.0 - sa / 100.0),
                                      1.0 - 0.01);
        cusparse.addRow({fmtDouble(sa, 1), fmtDouble(t, 0),
                         fmtSpeedup(dense_us / t)});
    }
    cusparse.print();

    std::printf("\n-- Our dual-side SpGEMM --\n");
    TextTable ours;
    ours.setHeader({"A sp. (%)", "B sp. (%)", "time (us)",
                    "speedup vs CUTLASS", "bound"});
    Rng rng(21);
    for (double sb : {0.0, 50.0, 90.0, 99.0, 99.9})
        for (double sa : {0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9})
            addSpgemmRows(session, ours, kN, dense_us, sa, sb, 1.0, rng);
    ours.print();

    // The paper's pruned operands are not uniform Bernoulli — AGP
    // and movement pruning cluster the non-zeros (dead filters,
    // heads), which is what lets warp tiles empty out (Fig. 6 /
    // Sec. VI-D). Re-run the B-sparse series with a pruned-like
    // clustered pattern.
    std::printf("\n-- Our dual-side SpGEMM, clustered (pruned-like, "
                "cluster=8) non-zero distribution --\n");
    TextTable clustered;
    clustered.setHeader({"A sp. (%)", "B sp. (%)", "time (us)",
                         "speedup vs CUTLASS", "bound"});
    for (double sb : {90.0, 99.0, 99.9})
        for (double sa : {0.0, 50.0, 90.0, 99.0, 99.9})
            addSpgemmRows(session, clustered, kN, dense_us, sa, sb, 8.0,
                          rng);
    clustered.print();

    paperNote("paper anchors: A=0/B=99 -> 13.4x; A=99.9/B=99 -> 23x "
              "(13.7x over cuSparse); crossover vs dense at A~25% "
              "when B=0; Sparse TC fixed at 1.86x.");
}

// -- Fig. 22 ------------------------------------------------------------

/**
 * A CNN panel: five conv strategies per layer, normalized to Dense
 * Implicit. Full-model GEMM layers (e.g. Mask R-CNN's box head) fold
 * into the totals, where each strategy runs its GEMM method.
 */
void
cnnPanel(const DnnModel &model, const char *note)
{
    Session session;
    ModelRunner runner(session);
    std::printf("== Fig. 22 panel: %s (normalized to Dense Implicit) "
                "==\n\n",
                model.name.c_str());

    std::vector<ModelRunResult> runs;
    for (ModelMethod method :
         {ModelMethod::DenseExplicit, ModelMethod::DenseImplicit,
          ModelMethod::SingleSparseExplicit,
          ModelMethod::SingleSparseImplicit,
          ModelMethod::DualSparseImplicit})
        runs.push_back(runner.run(model, method, 1));
    auto us = [&](size_t strategy, size_t layer) {
        return runs[strategy].layers[layer].stats.timeUs();
    };

    TextTable table;
    table.setHeader({"layer", "wsp", "asp", "DenseExp", "DenseImp",
                     "1S-Exp", "1S-Imp", "Dual-Imp"});
    size_t i = 0;
    for (const auto &layer : model.conv_layers) {
        const double base = us(1, i); // Dense Implicit
        table.addRow({layer.name, fmtDouble(layer.weight_sparsity, 2),
                      fmtDouble(layer.act_sparsity, 2),
                      fmtSpeedup(base / us(0, i)), fmtSpeedup(1.0),
                      fmtSpeedup(base / us(2, i)),
                      fmtSpeedup(base / us(3, i)),
                      fmtSpeedup(base / us(4, i))});
        ++i;
    }
    for (const auto &layer : model.gemm_layers) {
        const double dense = us(1, i);
        const double zhu = us(3, i);
        const double ours = us(4, i);
        table.addRow({layer.name + " (GEMM)",
                      fmtDouble(layer.weight_sparsity, 2),
                      fmtDouble(layer.act_sparsity, 2),
                      fmtSpeedup(1.0), fmtSpeedup(1.0),
                      fmtSpeedup(dense / zhu), fmtSpeedup(dense / zhu),
                      fmtSpeedup(dense / ours)});
        ++i;
    }

    const double base_total = runs[1].totalTimeUs();
    table.addRow({"FULL MODEL", "", "",
                  fmtSpeedup(base_total / runs[0].totalTimeUs()),
                  fmtSpeedup(1.0),
                  fmtSpeedup(base_total / runs[2].totalTimeUs()),
                  fmtSpeedup(base_total / runs[3].totalTimeUs()),
                  fmtSpeedup(base_total / runs[4].totalTimeUs())});
    table.print();
    paperNote(note);
}

/** A GEMM panel (BERT, RNN): Dense, Single Sparse and Dual Sparse
 *  per layer, normalized to Dense GEMM. */
void
gemmPanel(const DnnModel &model, const char *note)
{
    Session session;
    ModelRunner runner(session);
    std::printf("== Fig. 22 panel: %s (normalized to Dense GEMM) "
                "==\n\n",
                model.name.c_str());

    const ModelRunResult dense =
        runner.run(model, ModelMethod::DenseImplicit, 100);
    const ModelRunResult zhu =
        runner.run(model, ModelMethod::SingleSparseImplicit, 100);
    const ModelRunResult ours =
        runner.run(model, ModelMethod::DualSparseImplicit, 100);

    TextTable table;
    table.setHeader({"layer", "m x n x k", "wsp", "Dense",
                     "Single Sparse", "Dual Sparse"});
    for (size_t i = 0; i < model.gemm_layers.size(); ++i) {
        const GemmLayerSpec &layer = model.gemm_layers[i];
        const double dense_us = dense.layers[i].stats.timeUs();
        table.addRow({layer.name,
                      std::to_string(layer.m) + "x" +
                          std::to_string(layer.n) + "x" +
                          std::to_string(layer.k),
                      fmtDouble(layer.weight_sparsity, 2),
                      fmtSpeedup(1.0),
                      fmtSpeedup(dense_us / zhu.layers[i].stats.timeUs()),
                      fmtSpeedup(dense_us /
                                 ours.layers[i].stats.timeUs())});
    }
    table.addRow({"FULL MODEL", "", "", fmtSpeedup(1.0),
                  fmtSpeedup(dense.totalTimeUs() / zhu.totalTimeUs()),
                  fmtSpeedup(dense.totalTimeUs() / ours.totalTimeUs())});
    table.print();
    paperNote(note);
}

// -- Tables II-IV -------------------------------------------------------

/** Table II: the evaluated models, plus the layer inventory (shapes
 *  and sparsity operating points) each Fig. 22 panel runs. */
void
table2Models()
{
    std::printf("== Table II: evaluated sparse DNN models ==\n\n");
    TextTable table;
    table.setHeader({"Models", "Pruning Scheme", "Dataset", "Accuracy"});
    for (const auto &model : allModels())
        table.addRow({model.name, model.pruning, model.dataset,
                      model.accuracy});
    table.print();

    std::printf("\n== Layer inventory ==\n\n");
    for (const auto &model : allModels()) {
        std::printf("-- %s --\n", model.name.c_str());
        TextTable layers;
        layers.setHeader({"layer", "shape (GEMM m x n x k)",
                          "weight sp.", "act sp."});
        for (const auto &layer : model.conv_layers) {
            layers.addRow(
                {layer.name,
                 layer.shape.str() + " -> " +
                     std::to_string(layer.shape.loweredRows()) + "x" +
                     std::to_string(layer.shape.out_c) + "x" +
                     std::to_string(layer.shape.loweredCols()),
                 fmtDouble(layer.weight_sparsity, 2),
                 fmtDouble(layer.act_sparsity, 2)});
        }
        for (const auto &layer : model.gemm_layers) {
            layers.addRow({layer.name,
                           std::to_string(layer.m) + "x" +
                               std::to_string(layer.n) + "x" +
                               std::to_string(layer.k),
                           fmtDouble(layer.weight_sparsity, 2),
                           fmtDouble(layer.act_sparsity, 2)});
        }
        layers.print();
        std::printf("\n");
    }
}

/**
 * Table III: im2col time (dense vs CSR vs bitmap) on the paper's
 * ResNet-18 layer (fmap 56x56, filter 3x3, 128 in/out channels),
 * normalized to dense per sparsity point. These cells are host
 * wall-clock times of the three functional implementations: absolute
 * CPU times differ from a GPU, but the mechanism measured — CSR's
 * data-dependent lookups vs the bitmap's word operations — is the
 * same, so the ordering and the convergence at extreme sparsity
 * reproduce.
 */
void
table3Im2col()
{
    std::printf("== Table III: normalized im2col time "
                "(ResNet-18 layer: fmap 56x56, filter 3x3, 128 ch) "
                "==\n\n");

    ConvShape shape;
    shape.batch = 1;
    shape.in_c = 128;
    shape.in_h = shape.in_w = 56;
    shape.out_c = 128;
    shape.kernel = 3;
    shape.stride = 1;
    shape.pad = 1;

    TextTable table;
    table.setHeader({"Sparsity (%)", "Dense Im2col", "CSR Im2col",
                     "Bitmap Im2col"});
    for (double sparsity : {0.0, 0.25, 0.5, 0.75, 0.99, 0.999}) {
        Rng rng(static_cast<uint64_t>(sparsity * 1e4) + 5);
        Tensor4d input = reluActivationTensor(1, 128, 56, 56, sparsity,
                                              rng);
        CsrFeatureMap csr_fmap = CsrFeatureMap::encode(input);
        BitmapFeatureMap bm_fmap = BitmapFeatureMap::encode(input);

        const double dense_ms =
            bench::timeMs(3, [&] { im2colExplicit(input, shape); });
        const double csr_ms =
            bench::timeMs(1, [&] { im2colFromCsr(csr_fmap, shape); });
        const double bitmap_ms = bench::timeMs(
            3, [&] { im2colFromBitmap(bm_fmap, shape); });

        table.addRow({fmtDouble(sparsity * 100.0, 1), "1",
                      fmtDouble(csr_ms / dense_ms, 1),
                      fmtDouble(bitmap_ms / dense_ms, 2)});
    }
    table.print();
    std::printf(
        "\npaper: CSR 101.3/67.1/45.2/14.5/4.7/1.2, bitmap "
        "8.31/6.87/4.73/2.5/1.5/1.1 (GPU); shape reproduced on CPU\n");
}

/** Table IV: area and power overhead of the dual-side extension on
 *  the V100 (12 nm). */
void
table4Overhead()
{
    OverheadReport report = estimateOverhead(GpuConfig::v100());

    std::printf("== Table IV: area and power overhead (12 nm) ==\n\n");
    TextTable table;
    table.setHeader({"Module Name", "Area Overhead (mm^2)",
                     "Power Consumption (W)"});
    for (const auto &component : report.components)
        table.addRow({component.name, fmtDouble(component.area_mm2, 3),
                      fmtDouble(component.power_w, 2)});
    table.addRow({"Total overhead on V100",
                  fmtDouble(report.totalAreaMm2(), 3) + " (" +
                      fmtDouble(report.areaFraction() * 100.0, 1) +
                      "%)",
                  fmtDouble(report.totalPowerW(), 2) + " (" +
                      fmtDouble(report.powerFraction() * 100.0, 2) +
                      "%)"});
    table.print();
    paperNote("paper: adders 0.121 / 2.35, collector 1.51 / 0.46, "
              "buffer 11.215 / 1.08, total 12.846 (1.5%) / 3.89 "
              "(1.60%)");
}

// -- Ablations ----------------------------------------------------------

/** The Fig. 21 anchor points on one machine model. */
void
futureGpuMachine(const char *name, const GpuConfig &cfg)
{
    Session session(cfg);
    Rng rng(55);
    const int64_t n = 4096;
    const double dense_us = squareGemmUs(session, Method::Dense, n);
    std::printf("-- %s: dense %lld^3 = %.0f us --\n", name,
                static_cast<long long>(n), dense_us);
    TextTable table;
    table.setHeader({"A sp. (%)", "B sp. (%)", "time (us)",
                     "speedup", "bound"});
    struct Point
    {
        double sa, sb, cluster;
    };
    for (const Point &p :
         {Point{0.0, 50.0, 1.0}, Point{50.0, 50.0, 1.0},
          Point{0.0, 99.0, 8.0}, Point{90.0, 99.0, 8.0},
          Point{99.9, 99.0, 8.0}})
        addSpgemmRows(session, table, n, dense_us, p.sa, p.sb,
                      p.cluster, rng);
    table.print();
    std::printf("\n");
}

/**
 * Does the dual-side design keep paying off on a next-generation
 * machine? Re-runs the Fig. 21 anchor points on an A100-class
 * memory system (1.9x bandwidth, 40 MB L2) with the same OTC
 * arithmetic.
 */
void
ablationFutureGpu()
{
    std::printf("== Future-GPU ablation: same OTC arithmetic, newer "
                "memory system ==\n\n");
    futureGpuMachine("V100 (paper's machine)", GpuConfig::v100());
    futureGpuMachine("A100-class", GpuConfig::a100Like());
    std::printf("The sparse kernel's high-sparsity points are memory-"
                "bound on the V100; the A100-class memory system "
                "converts that headroom into further speedup, i.e. "
                "the technique scales forward.\n");
}

/**
 * Fixed-rate structured formats vs the dual-side bitmap across
 * weight sparsity: 2:4 (Ampere) and vector-wise 75% [72] are flat
 * lines, while the bitmap design tracks the actual sparsity
 * (Secs. I-II and VI-D).
 */
void
ablationStructuredFormats()
{
    Session session;
    Rng rng(24);
    const int64_t n = 4096;
    const double dense_us = squareGemmUs(session, Method::Dense, n);

    std::printf("== Ablation: structured formats vs dual-side bitmap "
                "(%lld^3, dense activations) ==\n\n",
                static_cast<long long>(n));
    TextTable table;
    table.setHeader({"weight sparsity", "2:4 (A100)",
                     "vector-wise 75% [72]", "ours (uniform)",
                     "ours (clustered x8)"});
    for (double sparsity : {0.5, 0.625, 0.75, 0.875, 0.9375, 0.99}) {
        const double ampere = squareGemmUs(
            session, Method::AmpereSparse, n, 0.0, sparsity);
        const double zhu =
            squareGemmUs(session, Method::ZhuSparse, n, 0.0, sparsity);

        SparsityProfile acts = SparsityProfile::denseA(n, n, 32);
        SparsityProfile uniform = SparsityProfile::randomA(
            n, n, 32, 1.0 - sparsity, 1.0, rng);
        SparsityProfile clustered = SparsityProfile::randomA(
            n, n, 32, 1.0 - sparsity, 8.0, rng);
        const double ours_uniform =
            dualStats(session, KernelRequest::gemm(acts, uniform))
                .timeUs();
        const double ours_clustered =
            dualStats(session, KernelRequest::gemm(acts, clustered))
                .timeUs();

        table.addRow({fmtDouble(sparsity, 4),
                      fmtSpeedup(dense_us / ampere),
                      fmtSpeedup(dense_us / zhu),
                      fmtSpeedup(dense_us / ours_uniform),
                      fmtSpeedup(dense_us / ours_clustered)});
    }
    table.print();
    paperNote("The fixed-rate designs are flat: 2:4 tops out at ~1.75x "
              "and the vector-wise design at ~1.86x, while the bitmap "
              "design keeps converting sparsity into speedup (and "
              "benefits further from the clustered patterns real "
              "pruning produces).");
}

/**
 * Warp-tile K-chunk size and accumulation-buffer design points
 * (Sec. III-B): where the paper's 32x32 / 128-bank / window-8
 * configuration sits.
 */
void
ablationTileSize()
{
    Rng rng(88);
    const int n = 1024;

    std::printf("== Ablation A: two-level tile K-depth ==\n\n");
    {
        Session session;
        TextTable table;
        table.setHeader({"tile_k", "tiles skipped", "compute (us)",
                         "encoded A bytes"});
        SparsityProfile pa =
            SparsityProfile::randomA(n, n, 32, 0.05, 8.0, rng);
        SparsityProfile pb =
            SparsityProfile::randomA(n, n, 32, 0.05, 8.0, rng);
        for (int tile_k : {8, 16, 32, 64, 128}) {
            SpGemmOptions opts;
            opts.functional = false;
            opts.tile_k = tile_k;
            KernelStats stats =
                dualStats(session, KernelRequest::gemm(pa, pb), opts);
            table.addRow({std::to_string(tile_k),
                          std::to_string(stats.warp_tiles_skipped),
                          fmtDouble(stats.compute_us, 1),
                          std::to_string(pa.encodedBytes(tile_k))});
        }
        table.print();
        std::printf("\nShallower tiles skip more but store more "
                    "bitmaps; 32 balances both (the paper's choice).\n");
    }

    std::printf("\n== Ablation B: accumulation-buffer banks ==\n\n");
    {
        TextTable table;
        table.setHeader({"banks", "merge cycles (dense-ish tile)",
                         "merge cycles (50% tile)"});
        MergeTrace dense_trace, half_trace;
        Rng trng(89);
        for (int i = 0; i < 256; ++i) {
            std::vector<int> full, half;
            for (int j = 0; j < 128; ++j)
                full.push_back(static_cast<int>(trng.uniformInt(1024)));
            for (int j = 0; j < 32; ++j)
                half.push_back(static_cast<int>(trng.uniformInt(1024)));
            dense_trace.instr_addrs.push_back(std::move(full));
            half_trace.instr_addrs.push_back(std::move(half));
        }
        for (int banks : {16, 32, 64, 128, 256}) {
            AccumBufferSim sim(banks, true, 8);
            table.addRow(
                {std::to_string(banks),
                 std::to_string(sim.simulateSparse(dense_trace)),
                 std::to_string(sim.simulateSparse(half_trace))});
        }
        table.print();
        std::printf("\n128 banks lets a fully dense OHMMA stream "
                    "retire at issue rate (256 instrs -> ~256+ "
                    "cycles); fewer banks throttle dense mode.\n");
    }

    std::printf("\n== Ablation C: operand-collector window ==\n\n");
    {
        TextTable table;
        table.setHeader({"window", "merge cycles"});
        MergeTrace trace;
        Rng trng(90);
        for (int i = 0; i < 128; ++i) {
            std::vector<int> addrs;
            for (int j = 0; j < 48; ++j)
                addrs.push_back(static_cast<int>(trng.uniformInt(1024)));
            trace.instr_addrs.push_back(std::move(addrs));
        }
        for (int window : {1, 2, 4, 8, 16}) {
            AccumBufferSim sim(128, true, window);
            table.addRow({std::to_string(window),
                          std::to_string(sim.simulateSparse(trace))});
        }
        table.print();
        std::printf("\nReturns diminish past a window of ~8, the "
                    "paper's design point (Fig. 20 queues).\n");
    }
}

/**
 * One-level vs two-level bitmap encoding (Sec. VI-D): with clustered
 * high sparsity the warp bitmap skips whole warp tiles and shrinks
 * the encoded footprint.
 */
void
ablationTwoLevel()
{
    Session session;
    Rng rng(77);
    const int n = 1024;

    std::printf("== Ablation: two-level bitmap (warp-bitmap skipping) "
                "==\n\n");
    TextTable table;
    table.setHeader({"sparsity", "cluster", "tiles skipped (%)",
                     "compute w/o skip (us)", "compute w/ skip (us)",
                     "skip speedup", "encoding bytes 1-lvl/2-lvl"});

    for (double sparsity : {0.9, 0.97, 0.99}) {
        for (double cluster : {1.0, 8.0, 32.0}) {
            Matrix<float> a = clusteredSparseMatrix(n, n, sparsity, 32,
                                                    cluster, rng);
            Matrix<float> b = clusteredSparseMatrix(n, n, sparsity, 32,
                                                    cluster, rng);
            SpGemmOptions skip;
            skip.functional = false;
            SpGemmOptions no_skip = skip;
            no_skip.two_level = false;

            KernelStats with_stats =
                dualStats(session, KernelRequest::gemm(a, b), skip);
            KernelStats without_stats =
                dualStats(session, KernelRequest::gemm(a, b), no_skip);

            const double total_tiles = static_cast<double>(
                with_stats.warp_tiles + with_stats.warp_tiles_skipped);
            BitmapMatrix one = BitmapMatrix::encode(a, Major::Col);
            TwoLevelBitmapMatrix two =
                TwoLevelBitmapMatrix::encode(a, 32, 32, Major::Col);

            table.addRow(
                {fmtDouble(sparsity, 2), fmtDouble(cluster, 0),
                 fmtDouble(100.0 * with_stats.warp_tiles_skipped /
                               total_tiles,
                           1),
                 fmtDouble(without_stats.compute_us, 1),
                 fmtDouble(with_stats.compute_us, 1),
                 fmtSpeedup(without_stats.compute_us /
                            with_stats.compute_us),
                 std::to_string(one.encodedBytes()) + "/" +
                     std::to_string(two.encodedBytes())});
        }
    }
    table.print();
    paperNote("Uniform patterns (cluster=1) rarely produce empty 32x32 "
              "tiles, so skipping only pays off once pruning clusters "
              "the non-zeros — the Sec. VI-D effect.");
}

/**
 * Energy per kernel, dense baseline vs dual-side SpGEMM across
 * sparsity, from the per-op energy model with the same machine
 * constants for both designs (the efficiency motivation, Sec. I).
 */
void
energyEfficiency()
{
    Session session;
    EnergyParams params = EnergyParams::v100_12nm();
    Rng rng(33);
    const int64_t n = 2048;

    const EnergyReport dense =
        denseGemmEnergy(n, n, n, params, session.config());

    std::printf("== Energy per %lld^3 GEMM kernel (model constants: "
                "%.1f pJ/MAC, %.1f pJ/B DRAM) ==\n\n",
                static_cast<long long>(n), params.fp16_mac_pj,
                params.dram_pj_per_byte);
    TextTable table;
    table.setHeader({"sparsity (A=B)", "compute (uJ)", "merge (uJ)",
                     "DRAM (uJ)", "static (uJ)", "total (uJ)",
                     "vs dense"});
    table.addRow({"dense baseline", fmtDouble(dense.compute_uj, 0), "-",
                  fmtDouble(dense.dram_uj, 0),
                  fmtDouble(dense.static_uj, 0),
                  fmtDouble(dense.totalUj(), 0), "1.00x"});

    for (double sparsity : {0.0, 0.5, 0.75, 0.9, 0.99}) {
        SparsityProfile a = SparsityProfile::randomA(
            n, n, 32, 1.0 - sparsity, 2.0, rng);
        SparsityProfile b = SparsityProfile::randomA(
            n, n, 32, 1.0 - sparsity, 2.0, rng);
        KernelStats stats = dualStats(session, KernelRequest::gemm(a, b));
        EnergyReport report =
            estimateEnergy(stats, params, session.config());
        table.addRow({fmtDouble(sparsity, 2),
                      fmtDouble(report.compute_uj, 0),
                      fmtDouble(report.merge_uj, 0),
                      fmtDouble(report.dram_uj, 0),
                      fmtDouble(report.static_uj, 0),
                      fmtDouble(report.totalUj(), 0),
                      fmtSpeedup(dense.totalUj() / report.totalUj())});
    }
    table.print();
    paperNote("At full density the bitmap machinery costs extra energy "
              "(BOHMMA, POPC, merge); past ~50% dual-side sparsity the "
              "skipped MACs and smaller transfers dominate.");
}

// -- the table ----------------------------------------------------------

struct Figure
{
    const char *name;
    void (*run)();
};

const Figure kFigures[] = {
    {"fig5_warp_skipping", fig5WarpSkipping},
    {"fig6_tiling", fig6Tiling},
    {"fig19_operand_collector", fig19OperandCollector},
    {"fig21_spgemm", fig21Spgemm},
    {"fig22_bert",
     [] {
         gemmPanel(makeBertBase(),
                   "paper: Single Sparse 1.20x-1.77x (capped by the "
                   "fixed 75% format); Dual Sparse 3.62x-8.45x");
     }},
    {"fig22_maskrcnn", [] { cnnPanel(makeMaskRcnn(), nullptr); }},
    {"fig22_resnet18",
     [] {
         cnnPanel(makeResnet18(),
                  "paper note: small late layers (e.g. 5-4) see small "
                  "speedups — they are bound by data movement");
     }},
    {"fig22_rnn",
     [] {
         gemmPanel(makeRnnLM(),
                   "paper: average Dual Sparse speedup 6.74x on the "
                   "GEMM models, 3.46x over Single Sparse");
     }},
    {"fig22_vgg16",
     [] {
         cnnPanel(makeVgg16(),
                  "paper: Dual Sparse Implicit 1.25x-7.49x over Dense "
                  "Implicit (avg 4.38x across CNNs)");
     }},
    {"table2_models", table2Models},
    {"table3_im2col", table3Im2col},
    {"table4_overhead", table4Overhead},
    {"ablation_future_gpu", ablationFutureGpu},
    {"ablation_structured_formats", ablationStructuredFormats},
    {"ablation_tile_size", ablationTileSize},
    {"ablation_two_level", ablationTwoLevel},
    {"energy_efficiency", energyEfficiency},
};

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &figure : kFigures)
        if (name == figure.name)
            return &figure;
    return nullptr;
}

int
usage()
{
    std::fprintf(stderr, "usage: paper_figures all | NAME...\n\n"
                         "figures:\n");
    for (const Figure &figure : kFigures)
        std::fprintf(stderr, "  %s\n", figure.name);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Figure *> chosen;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "all") {
            for (const Figure &figure : kFigures)
                chosen.push_back(&figure);
        } else if (const Figure *figure = findFigure(argv[i])) {
            chosen.push_back(figure);
        } else {
            std::fprintf(stderr, "error: unknown figure '%s'\n",
                         argv[i]);
            return usage();
        }
    }
    if (chosen.empty())
        return usage();
    for (size_t i = 0; i < chosen.size(); ++i) {
        if (i > 0)
            std::printf("\n");
        chosen[i]->run();
    }
    return 0;
}
