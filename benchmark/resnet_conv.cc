/**
 * @file
 * resnet_conv: ResNet-18's ten convolution layer shapes — the 7x7/s2
 * conv1 and three stride-2 layers among them — as functional
 * Method::Auto requests. A pass is one forward: each shape runs as
 * many times as the network stacks it (17 convolutions). The weights
 * are magnitude-pruned to each layer's AGP sparsity and fixed for the
 * run; the post-ReLU inputs (0-65% zeros) get a fresh element per
 * request.
 *
 * Chosen because it is the only workload that runs the bitmap im2col:
 * stride-1 word extraction, the strided PEXT path and the toTwoLevel
 * retile. Auto sends the dense conv1 to the functional dense path.
 */
#include <cmath>
#include <iterator>

#include "common/fp16.h"
#include "conv/spconv.h"
#include "core/method_map.h"
#include "gemm/spgemm_device.h"
#include "im2col/dense_im2col.h"
#include "model/pruning.h"
#include "model/sparsity_gen.h"
#include "model/zoo.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"
#include "workload.h"

namespace dstc {
namespace bench {

namespace {

/** Convolutions per zoo layer shape in one ResNet-18 forward: four
 *  3x3 convs per stage, the first of stages 3-5 strided. */
constexpr int kRepeats[] = {1, 2, 2, 1, 3, 1, 3, 1, 2, 1};

class ResnetConv : public RequestWorkload
{
  public:
    using RequestWorkload::RequestWorkload;

    double nominalPassSeconds() const override { return 0.85; }

  protected:
    struct Layer
    {
        ConvShape shape;
        Tensor4d input;
        Matrix<float> weights; ///< out_c x (in_c * k * k)
        // Verification state (lazy): the weights rounded through FP16,
        // and refConv2d over the rounded operands and over their
        // magnitudes, with the fresh element (0, 0, 0, 0) zeroed.
        Matrix<float> w16;
        Tensor4d ref, ref_abs;
    };

    void
    build(Tracer &tracer) override
    {
        Span span(tracer, "model.input_gen");
        Rng rng(config_.seed);
        layers_.clear();
        layer_of_.clear();
        const DnnModel model = makeResnet18();
        DSTC_ASSERT(model.conv_layers.size() == std::size(kRepeats));
        for (const ConvLayerSpec &spec : model.conv_layers) {
            const ConvShape &s = spec.shape;
            Layer layer;
            layer.shape = s;
            // AGP without retraining ends at the one-shot magnitude
            // prune to the final sparsity.
            layer.weights = magnitudePrune(
                randomSparseMatrix(s.out_c,
                                   static_cast<int>(s.loweredCols()),
                                   0.0, rng),
                spec.weight_sparsity);
            layer.input = reluActivationTensor(s.batch, s.in_c, s.in_h,
                                               s.in_w, spec.act_sparsity,
                                               rng);
            layers_.push_back(std::move(layer));
        }
        for (size_t i = 0; i < layers_.size(); ++i) {
            Layer &layer = layers_[i];
            for (int r = 0; r < kRepeats[i]; ++r) {
                slots_.push_back(
                    {model.conv_layers[i].name,
                     KernelRequest::conv(layer.input, layer.weights,
                                         layer.shape),
                     &layer.input.at(0, 0, 0, 0)});
                layer_of_.push_back(i);
            }
        }
    }

    /** @p t's values rounded through FP16 (the datapath's operands),
     *  or the magnitudes of the rounded values. */
    template <typename T>
    static T
    rounded(T t, bool magnitude)
    {
        for (float &v : t.data())
            v = magnitude ? std::fabs(roundToFp16(v)) : roundToFp16(v);
        return t;
    }

    bool
    verify(const Kept &kept, std::string *why) override
    {
        Layer &layer = layers_[layer_of_[kept.slot]];
        const ConvShape &s = layer.shape;
        if (layer.ref.size() == 0) {
            Tensor4d x = layer.input;
            x.at(0, 0, 0, 0) = 0.0f;
            layer.w16 = rounded(layer.weights, false);
            layer.ref = refConv2d(rounded(x, false), layer.w16,
                                  s.params());
            layer.ref_abs = refConv2d(rounded(x, true),
                                      rounded(layer.weights, true),
                                      s.params());
        }
        const Tensor4d &out = *kept.report.output;
        if (out.c() != s.out_c || out.h() != s.outH() ||
            out.w() != s.outW()) {
            *why = "output shape mismatch";
            return false;
        }
        // FP16 products are exact in FP32, so every conv path and the
        // reference over rounded operands differ only in accumulation
        // order: each side is within K u sum|x||w| of the exact sum.
        // The kept request's element adds one product to the outputs
        // whose window covers it.
        const double v16 = roundToFp16(kept.value);
        const double gamma = 2.0 *
                             static_cast<double>(s.loweredCols() + 1) *
                             std::ldexp(1.0, -24);
        for (int o = 0; o < s.out_c; ++o)
            for (int oh = 0; oh < s.outH(); ++oh)
                for (int ow = 0; ow < s.outW(); ++ow) {
                    double want = layer.ref.at(0, o, oh, ow);
                    double magnitude = layer.ref_abs.at(0, o, oh, ow);
                    const int kh = s.pad - oh * s.stride;
                    const int kw = s.pad - ow * s.stride;
                    if (kh >= 0 && kh < s.kernel && kw >= 0 &&
                        kw < s.kernel) {
                        const double product =
                            v16 * layer.w16.at(o, kh * s.kernel + kw);
                        want += product;
                        magnitude += std::fabs(product);
                    }
                    const double bound = gamma * magnitude + 1e-6;
                    const double got = out.at(0, o, oh, ow);
                    if (std::fabs(got - want) > bound) {
                        *why = "out(" + std::to_string(o) + "," +
                               std::to_string(oh) + "," +
                               std::to_string(ow) + ") off by " +
                               std::to_string(got - want);
                        return false;
                    }
                }
        return true;
    }

    double
    probe(const Slot &slot, const KernelReport &report,
          Tracer &tracer) override
    {
        const Layer &layer = layers_[layer_of_[&slot - slots_.data()]];
        const ConvExecutor executor(session_->config());
        {
            Span span(tracer, "conv.run");
            ConvOptions options;
            options.num_workers = 1;
            executor.run(layer.input, layer.weights, layer.shape,
                         toConvMethod(report.method, Lowering::Implicit),
                         options);
        }
        if (report.method != Method::DualSparse)
            return 0.0;
        BitmapFeatureMap fmap;
        {
            Span span(tracer, "im2col.fmap_encode");
            fmap = BitmapFeatureMap::encode(layer.input);
        }
        LoweredFeatureMap lowered;
        {
            Span span(tracer, "im2col.lower");
            lowered = im2colFromBitmap(fmap, layer.shape, true, 0);
            span.arg("register_ops",
                     static_cast<double>(lowered.register_ops));
        }
        TwoLevelBitmapMatrix a_enc;
        {
            Span span(tracer, "im2col.retile");
            a_enc = lowered.toTwoLevel(32, 32, 0);
        }
        TwoLevelBitmapMatrix b_enc;
        {
            Span span(tracer, "sparse.encode_two_level");
            b_enc = wordEncodeTwoLevel(
                flattenWeightsTransposed(layer.weights), 32, 32,
                Major::Row, 0);
        }
        const SpGemmDevice device(session_->config());
        SpGemmOptions options;
        options.num_workers = 1;
        {
            Span span(tracer, "gemm.spgemm");
            device.multiplyEncoded(a_enc, b_enc, options);
        }
        options.num_workers = 0;
        {
            Span span(tracer, "gemm.spgemm_pool");
            device.multiplyEncoded(a_enc, b_enc, options);
        }
        return static_cast<double>(fmap.encodedBytes() +
                                   a_enc.encodedBytes());
    }

    KernelRequest
    denseTwin(const Slot &slot) const override
    {
        // Timing only: the dense model reads no operand values.
        return KernelRequest::conv(slot.request.shape)
            .withMethod(Method::Dense);
    }

  private:
    std::vector<Layer> layers_;
    std::vector<size_t> layer_of_; ///< per slot
};

} // namespace

std::unique_ptr<Workload>
makeResnetConv(const RunConfig &config)
{
    return std::make_unique<ResnetConv>(config);
}

} // namespace bench
} // namespace dstc
