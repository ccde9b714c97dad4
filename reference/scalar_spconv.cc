/**
 * @file
 * Scalar reference of the convolution pipeline, compiled into the
 * test-only `dstc_reference` library. The conv equivalence tests and
 * bench/micro_spconv link this target to keep the bitwise pin:
 * ConvExecutor::run == runScalar (outputs and stats) for every
 * method, shape and worker count. Non-implicit-sparse methods
 * delegate to ConvExecutor::run in the shipped library: production
 * and reference share that one definition.
 */
#include "conv/spconv.h"

#include "common/logging.h"
#include "gemm/spgemm_device.h"
#include "im2col/dense_im2col.h"
#include "tensor/reference.h"

namespace dstc {

ConvResult
ConvExecutor::runScalar(const Tensor4d &input,
                        const Matrix<float> &weights,
                        const ConvShape &shape, ConvMethod method,
                        const ConvOptions &options) const
{
    // The explicit / dense-implicit baselines ARE the scalar path:
    // analytic timing and the dense lowering the library runs.
    if (!isImplicitSparse(method))
        return run(input, weights, shape, method, options);

    DSTC_ASSERT(weights.rows() == shape.out_c &&
                weights.cols() == shape.loweredCols(),
                "weights must be out_c x (in_c*k*k)");

    const Matrix<float> wt = flattenWeightsTransposed(weights);

    // The reference lowering keeps the per-bit strided gather
    // (word_strided = false): run()'s word-parallel deinterleave is
    // pinned against this path bit for bit.
    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);
    LoweredFeatureMap lfm =
        im2colFromBitmap(fmap, shape, true, 1, false);
    Matrix<float> lowered = lfm.decode();

    // Functional GEMM through the dense-operand entry (per-element
    // profile + re-encode inside), matching run()'s direct re-tile.
    SpGemmDevice spgemm(cfg_);
    SpGemmOptions opts;
    opts.functional = true;
    opts.num_workers = options.num_workers;
    Matrix<float> d = spgemm.multiply(lowered, wt, opts).d;

    // Timing from the actual data's sparsity, profiled element-wise.
    ConvOperandEncoding enc;
    enc.a = method == ConvMethod::DualSparseImplicit
                ? SparsityProfile::fromMatrixA(lowered, 32)
                : SparsityProfile::denseA(shape.loweredRows(),
                                          shape.loweredCols(), 32);
    enc.b = SparsityProfile::fromMatrixB(wt, 32);
    enc.input_bytes = static_cast<double>(fmap.encodedBytes());
    enc.weight_bytes = static_cast<double>(enc.b->encodedBytes(32));

    ConvResult result;
    result.stats = timeEncoded(shape, method, enc, options);
    result.output = foldLoweredOutput(d, shape);
    return result;
}

} // namespace dstc
