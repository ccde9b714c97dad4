/**
 * @file
 * graph_spmm: the six checked-in corpus matrices (GNN adjacency
 * and SuiteSparse-style, 99.3-99.95% sparse) times N = 64 dense
 * features, as functional Method::Auto SpMM requests. The seed picks a
 * node-label rotation per matrix (same graph, new tile alignment) and
 * the features; the features get a fresh element per request while
 * the adjacency is reused, so after warm-up A always hits the cache.
 *
 * Chosen as the plan-stage workload: A's encodings and profile hit the
 * cache, so the content digest that keys them dominates a request.
 * It never encodes a two-level B and never runs im2col.
 */
#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "gemm/spmm_device.h"
#include "sparse/mtx_io.h"
#include "sparse/word_encode.h"
#include "workload.h"

namespace dstc {
namespace bench {

namespace {

constexpr int kFeatures = 64;

class GraphSpmm : public RequestWorkload
{
  public:
    using RequestWorkload::RequestWorkload;

    double nominalPassSeconds() const override { return 0.5; }

  protected:
    struct Graph
    {
        Matrix<float> adjacency; ///< A, rotated
        Matrix<float> features;  ///< B: k x kFeatures
    };

    void
    build(Tracer &tracer) override
    {
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(config_.corpus_dir))
            if (entry.path().extension() == ".mtx")
                paths.push_back(entry.path().string());
        std::sort(paths.begin(), paths.end());
        if (paths.empty())
            throw std::runtime_error("no .mtx files in " +
                                     config_.corpus_dir);

        Rng rng(config_.seed);
        graphs_.clear();
        names_.clear();
        for (const std::string &path : paths) {
            Matrix<float> loaded;
            {
                Span span(tracer, "sparse.mtx_load");
                std::string error;
                if (!loadMatrixMarket(path, &loaded, &error))
                    throw std::runtime_error(error);
            }
            Span span(tracer, "model.input_gen");
            const int n = loaded.rows();
            if (loaded.cols() != n)
                throw std::runtime_error(path + " is not square");
            // Relabel node i as (i + shift) mod n on both sides.
            const int shift = static_cast<int>(rng.uniformInt(n));
            Graph graph;
            graph.adjacency = Matrix<float>(n, n);
            for (int r = 0; r < n; ++r)
                for (int c = 0; c < n; ++c) {
                    const float v = loaded.at(r, c);
                    if (v != 0.0f)
                        graph.adjacency.at((r + shift) % n,
                                           (c + shift) % n) = v;
                }
            graph.features = randomSparseMatrix(n, kFeatures, 0.0, rng);
            graphs_.push_back(std::move(graph));
            names_.push_back(
                std::filesystem::path(path).stem().string());
        }
        for (size_t i = 0; i < graphs_.size(); ++i) {
            Graph &g = graphs_[i];
            slots_.push_back({names_[i],
                              KernelRequest::spmm(g.adjacency,
                                                  g.features),
                              &g.features.at(0, 0)});
        }
    }

    bool
    verify(const Kept &kept, std::string *why) override
    {
        Graph &g = graphs_[kept.slot];
        const float current = g.features.at(0, 0);
        g.features.at(0, 0) = kept.value;
        const Matrix<float> want =
            refSpmmNarrow(g.adjacency, g.features, DataType::Fp16);
        g.features.at(0, 0) = current;
        // Every SpMM path accumulates ascending-k over identically
        // quantized operands: the output is pinned bitwise.
        if (!(*kept.report.d == want)) {
            *why = "not bitwise equal to refSpmmNarrow";
            return false;
        }
        return true;
    }

    double
    probe(const Slot &slot, const KernelReport &report,
          Tracer &tracer) override
    {
        const Graph &g = graphs_[&slot - slots_.data()];
        const Matrix<float> &a = g.adjacency;
        const Matrix<float> &b = g.features;
        {
            Span span(tracer, "core.digest");
            keep(CacheKey("operand-bytes").matrix(a).value());
        }
        {
            Span span(tracer, "gemm.profile");
            SparsityProfile::fromMatrixAWord(a, 8);
        }
        {
            Span span(tracer, "gemm.density_probe");
            wordSparsity(a);
            wordSparsity(b);
        }
        NarrowTileMatrix narrow;
        {
            Span span(tracer, "sparse.encode_narrow");
            narrow = wordEncodeNarrowTile(a);
        }
        const SpmmDevice device(session_->config());
        const QuantSpec spec_b = QuantSpec::forValues(
            DataType::Fp16, b.data().data(), b.data().size());
        SpGemmOptions options;
        options.num_workers = 1;
        if (report.stats.name == "dstc_spmm_wide") {
            TwoLevelBitmapMatrix wide;
            {
                Span span(tracer, "sparse.encode_two_level");
                wide = wordEncodeTwoLevel(a, 32, 32, Major::Col);
            }
            Span span(tracer, "gemm.spmm");
            device.multiplyWide(wide, b, spec_b, options);
            return static_cast<double>(wide.encodedBytes());
        }
        Span span(tracer, "gemm.spmm");
        device.multiplyNarrow(narrow, b, spec_b, options);
        return static_cast<double>(narrow.encodedBytes());
    }

    KernelRequest
    denseTwin(const Slot &slot) const override
    {
        return KernelRequest(slot.request)
            .withMethod(Method::Dense)
            .withFunctional(false);
    }

  private:
    std::vector<Graph> graphs_;
    std::vector<std::string> names_;
};

} // namespace

std::unique_ptr<Workload>
makeGraphSpmm(const RunConfig &config)
{
    return std::make_unique<GraphSpmm>(config);
}

} // namespace bench
} // namespace dstc
