/**
 * @file
 * bert_gemm: the four BERT-base encoder GEMMs (M = 384) as functional
 * Method::Auto requests. The weights are clustered (movement pruning,
 * 92-95% sparse) and fixed for the run; the post-GELU activations are
 * nearly dense (5-10% zeros) and get a fresh element per request.
 *
 * Chosen because every request encodes A (a cache write of a new
 * digest) and reads B's encoding from the cache, then runs the
 * word-parallel SpGEMM tile loop. It has no im2col,
 * no narrow tile and no serving.
 */
#include <cmath>
#include <utility>

#include "common/fp16.h"
#include "gemm/spgemm_device.h"
#include "model/sparsity_gen.h"
#include "model/zoo.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"
#include "workload.h"

namespace dstc {
namespace bench {

namespace {

/** Edge of the square blocks the weight clustering draws. */
constexpr int kWeightBlock = 8;

/**
 * sum_k |fp16(a_ik)| |fp16(b_kj)|: the magnitude the accumulation-order
 * error of D_ij scales with. Walks B's non-zeros only.
 */
Matrix<float>
absProducts(const Matrix<float> &a, const Matrix<float> &b)
{
    std::vector<std::vector<std::pair<int, float>>> rows(b.rows());
    for (int k = 0; k < b.rows(); ++k)
        for (int j = 0; j < b.cols(); ++j)
            if (b.at(k, j) != 0.0f)
                rows[k].push_back({j, std::fabs(roundToFp16(b.at(k, j)))});
    Matrix<float> out(a.rows(), b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int k = 0; k < a.cols(); ++k) {
            const float av = std::fabs(roundToFp16(a.at(i, k)));
            for (const auto &[j, bv] : rows[k])
                out.at(i, j) += av * bv;
        }
    return out;
}

class BertGemm : public RequestWorkload
{
  public:
    using RequestWorkload::RequestWorkload;

    double nominalPassSeconds() const override { return 0.25; }

  protected:
    struct Layer
    {
        Matrix<float> acts;    ///< A: m x k
        Matrix<float> weights; ///< B: k x n
        Matrix<float> ref;     ///< refGemmFp16, rows 1.. (lazy)
        Matrix<float> ref_abs; ///< absProducts, rows 1.. (lazy)
        TwoLevelBitmapMatrix weights_enc; ///< probe operand (lazy)
    };

    void
    build(Tracer &tracer) override
    {
        Span span(tracer, "model.input_gen");
        Rng rng(config_.seed);
        layers_.clear();
        const DnnModel model = makeBertBase();
        for (const GemmLayerSpec &spec : model.gemm_layers) {
            Layer layer;
            layer.weights = clusteredSparseMatrix(
                static_cast<int>(spec.k), static_cast<int>(spec.n),
                spec.weight_sparsity, kWeightBlock, spec.weight_cluster,
                rng);
            layer.acts = reluActivationMatrix(static_cast<int>(spec.m),
                                              static_cast<int>(spec.k),
                                              spec.act_sparsity, rng);
            layers_.push_back(std::move(layer));
        }
        for (size_t i = 0; i < layers_.size(); ++i) {
            Layer &layer = layers_[i];
            slots_.push_back({model.gemm_layers[i].name,
                              KernelRequest::gemm(layer.acts,
                                                  layer.weights),
                              &layer.acts.at(0, 0)});
        }
    }

    bool
    verify(const Kept &kept, std::string *why) override
    {
        Layer &layer = layers_[kept.slot];
        const Matrix<float> &a = layer.acts;
        const Matrix<float> &b = layer.weights;
        if (layer.ref.rows() == 0) {
            // Rows 1.. do not see the freshened element (0, 0).
            layer.ref = refGemmFp16(a, b);
            layer.ref_abs = absProducts(a, b);
        }
        Matrix<float> row0(1, a.cols());
        for (int k = 0; k < a.cols(); ++k)
            row0.at(0, k) = a.at(0, k);
        row0.at(0, 0) = kept.value;
        const Matrix<float> ref0 = refGemmFp16(row0, b);
        const Matrix<float> abs0 = absProducts(row0, b);

        const Matrix<float> &d = *kept.report.d;
        if (d.rows() != a.rows() || d.cols() != b.cols()) {
            *why = "output shape mismatch";
            return false;
        }
        // FP16 products are exact in FP32, so kernel and reference
        // differ only in accumulation order: each side is within
        // K u sum|a||b| of the exact sum.
        const double gamma = 2.0 * a.cols() * std::ldexp(1.0, -24);
        for (int r = 0; r < d.rows(); ++r) {
            for (int c = 0; c < d.cols(); ++c) {
                const double want =
                    r == 0 ? ref0.at(0, c) : layer.ref.at(r, c);
                const double bound =
                    gamma * (r == 0 ? abs0.at(0, c)
                                    : layer.ref_abs.at(r, c)) +
                    1e-6;
                if (std::fabs(d.at(r, c) - want) > bound) {
                    *why = "D(" + std::to_string(r) + "," +
                           std::to_string(c) + ") off by " +
                           std::to_string(d.at(r, c) - want);
                    return false;
                }
            }
        }
        return true;
    }

    double
    probe(const Slot &slot, const KernelReport &report,
          Tracer &tracer) override
    {
        (void)report;
        Layer &layer = layers_[&slot - slots_.data()];
        const Matrix<float> &a = layer.acts;
        const Matrix<float> &b = layer.weights;
        {
            Span span(tracer, "core.digest");
            keep(CacheKey("operand-bytes").matrix(a).value() ^
                 CacheKey("operand-bytes").matrix(b).value());
        }
        {
            Span span(tracer, "gemm.profile");
            SparsityProfile::fromMatrixAWord(a, 32);
        }
        {
            Span span(tracer, "gemm.density_probe");
            wordSparsity(a);
            wordSparsity(b);
        }
        TwoLevelBitmapMatrix a_enc;
        {
            Span span(tracer, "sparse.encode_two_level");
            a_enc = wordEncodeTwoLevel(a, 32, 32, Major::Col);
        }
        if (layer.weights_enc.rows() == 0)
            layer.weights_enc = wordEncodeTwoLevel(b, 32, 32, Major::Row);
        const SpGemmDevice device(session_->config());
        SpGemmOptions options;
        options.num_workers = 1;
        {
            Span span(tracer, "gemm.spgemm");
            device.multiplyEncoded(a_enc, layer.weights_enc, options);
        }
        options.num_workers = 0;
        {
            Span span(tracer, "gemm.spgemm_pool");
            device.multiplyEncoded(a_enc, layer.weights_enc, options);
        }
        return static_cast<double>(a_enc.encodedBytes());
    }

    KernelRequest
    denseTwin(const Slot &slot) const override
    {
        return KernelRequest(slot.request)
            .withMethod(Method::Dense)
            .withFunctional(false);
    }

  private:
    std::vector<Layer> layers_;
};

} // namespace

std::unique_ptr<Workload>
makeBertGemm(const RunConfig &config)
{
    return std::make_unique<BertGemm>(config);
}

} // namespace bench
} // namespace dstc
