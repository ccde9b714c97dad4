/**
 * @file
 * Shared harness for the five Fig. 22 panels: layer-wise and
 * full-model speedups for one DNN workload.
 *
 * CNN models compare five strategies normalized to Dense Implicit;
 * GEMM models (BERT, RNN) compare three normalized to Dense GEMM,
 * exactly as the paper's figure does.
 *
 * All kernel executions go through the Session / KernelRegistry
 * plan-execute API: each panel builds one KernelRequest per (layer,
 * strategy) pair and submits the whole panel as a single batch on
 * the session's worker pool.
 */
#ifndef DSTC_BENCH_FIG22_COMMON_H
#define DSTC_BENCH_FIG22_COMMON_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/session.h"
#include "model/zoo.h"

namespace dstc {
namespace bench {

/** One KernelRequest per (GEMM layer, strategy) for the three GEMM
 *  columns: Dense, Single Sparse (vector-wise), Dual Sparse. */
inline std::vector<KernelRequest>
gemmLayerRequests(const GemmLayerSpec &layer, uint64_t seed)
{
    std::vector<KernelRequest> requests;
    for (Method method : {Method::Dense, Method::ZhuSparse,
                          Method::DualSparse}) {
        KernelRequest req = KernelRequest::gemm(
            layer.m, layer.n, layer.k, layer.act_sparsity,
            layer.weight_sparsity);
        req.method = method;
        req.withClusters(layer.act_cluster, layer.weight_cluster);
        req.seed = seed;
        req.tag = layer.name;
        requests.push_back(std::move(req));
    }
    return requests;
}

/** Run a CNN model panel: 5 conv strategies per layer. */
inline void
runConvPanel(const DnnModel &model)
{
    Session session;
    std::printf("== Fig. 22 panel: %s (normalized to Dense Implicit) "
                "==\n\n",
                model.name.c_str());

    const std::vector<std::pair<Method, Lowering>> strategies = {
        {Method::Dense, Lowering::Explicit},
        {Method::Dense, Lowering::Implicit},
        {Method::ZhuSparse, Lowering::Explicit},
        {Method::ZhuSparse, Lowering::Implicit},
        {Method::DualSparse, Lowering::Implicit}};

    // One request per (layer, strategy), submitted as one batch.
    std::vector<KernelRequest> requests;
    uint64_t seed = 1;
    for (const auto &layer : model.conv_layers) {
        for (const auto &[method, lowering] : strategies) {
            KernelRequest req = KernelRequest::conv(
                layer.shape, layer.weight_sparsity,
                layer.act_sparsity);
            req.method = method;
            req.lowering = lowering;
            req.withClusters(layer.act_cluster, layer.weight_cluster);
            req.seed = seed;
            req.tag = layer.name;
            requests.push_back(std::move(req));
        }
        ++seed;
    }
    const size_t gemm_begin = requests.size();
    // The seed counter continues from the conv layers, matching the
    // panel's original per-layer seed sequence.
    for (const auto &layer : model.gemm_layers)
        for (KernelRequest &req : gemmLayerRequests(layer, seed++))
            requests.push_back(std::move(req));

    std::vector<KernelReport> reports =
        session.runBatch(std::move(requests));

    TextTable table;
    table.setHeader({"layer", "wsp", "asp", "DenseExp", "DenseImp",
                     "1S-Exp", "1S-Imp", "Dual-Imp"});

    std::vector<double> totals(strategies.size(), 0.0);
    size_t idx = 0;
    for (const auto &layer : model.conv_layers) {
        std::vector<double> times;
        for (size_t s = 0; s < strategies.size(); ++s)
            times.push_back(reports[idx++].timeUs());
        for (size_t s = 0; s < strategies.size(); ++s)
            totals[s] += times[s];
        const double base = times[1]; // Dense Implicit
        table.addRow({layer.name, fmtDouble(layer.weight_sparsity, 2),
                      fmtDouble(layer.act_sparsity, 2),
                      fmtSpeedup(base / times[0]),
                      fmtSpeedup(1.0),
                      fmtSpeedup(base / times[2]),
                      fmtSpeedup(base / times[3]),
                      fmtSpeedup(base / times[4])});
    }
    // Full-model GEMM layers (e.g. Mask R-CNN's box head) fold into
    // the totals with the three GEMM methods mapped onto columns.
    idx = gemm_begin;
    for (const auto &layer : model.gemm_layers) {
        const double dense = reports[idx++].timeUs();
        const double zhu = reports[idx++].timeUs();
        const double ours = reports[idx++].timeUs();
        totals[0] += dense;
        totals[1] += dense;
        totals[2] += zhu;
        totals[3] += zhu;
        totals[4] += ours;
        table.addRow({layer.name + " (GEMM)",
                      fmtDouble(layer.weight_sparsity, 2),
                      fmtDouble(layer.act_sparsity, 2),
                      fmtSpeedup(1.0), fmtSpeedup(1.0),
                      fmtSpeedup(dense / zhu), fmtSpeedup(dense / zhu),
                      fmtSpeedup(dense / ours)});
    }

    const double base_total = totals[1];
    table.addRow({"FULL MODEL", "", "",
                  fmtSpeedup(base_total / totals[0]), fmtSpeedup(1.0),
                  fmtSpeedup(base_total / totals[2]),
                  fmtSpeedup(base_total / totals[3]),
                  fmtSpeedup(base_total / totals[4])});
    table.print();
}

/** Run a GEMM model panel (BERT, RNN): 3 strategies per layer. */
inline void
runGemmPanel(const DnnModel &model)
{
    Session session;
    std::printf("== Fig. 22 panel: %s (normalized to Dense GEMM) "
                "==\n\n",
                model.name.c_str());

    std::vector<KernelRequest> requests;
    uint64_t seed = 100;
    for (const auto &layer : model.gemm_layers)
        for (KernelRequest &req : gemmLayerRequests(layer, seed++))
            requests.push_back(std::move(req));

    std::vector<KernelReport> reports =
        session.runBatch(std::move(requests));

    TextTable table;
    table.setHeader({"layer", "m x n x k", "wsp", "Dense",
                     "Single Sparse", "Dual Sparse"});
    double dense_total = 0.0, zhu_total = 0.0, ours_total = 0.0;
    size_t idx = 0;
    for (const auto &layer : model.gemm_layers) {
        const double dense = reports[idx++].timeUs();
        const double zhu = reports[idx++].timeUs();
        const double ours = reports[idx++].timeUs();
        dense_total += dense;
        zhu_total += zhu;
        ours_total += ours;
        table.addRow({layer.name,
                      std::to_string(layer.m) + "x" +
                          std::to_string(layer.n) + "x" +
                          std::to_string(layer.k),
                      fmtDouble(layer.weight_sparsity, 2),
                      fmtSpeedup(1.0), fmtSpeedup(dense / zhu),
                      fmtSpeedup(dense / ours)});
    }
    table.addRow({"FULL MODEL", "", "", fmtSpeedup(1.0),
                  fmtSpeedup(dense_total / zhu_total),
                  fmtSpeedup(dense_total / ours_total)});
    table.print();
}

} // namespace bench
} // namespace dstc

#endif // DSTC_BENCH_FIG22_COMMON_H
