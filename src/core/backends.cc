/**
 * @file
 * The five primitive backends: dual-side sparse Tensor Core, dense
 * CUTLASS-like, Zhu vector-wise sparse TC, Ampere 2:4 sparse TC and
 * the cuSPARSE-like CSR SpGEMM — each answering the uniform
 * KernelRequest -> plan() -> execute() -> KernelReport protocol.
 * The density-partitioned hybrid composer that routes tile classes
 * across them lives in hybrid.cc.
 *
 * Every plan builds on the ExecutionPlan skeleton (request, context,
 * digests, cache-hit flag and the one stats memo held once) and has
 * its one shape: a timing hook that prices the request from what the
 * timing needs (popcount profiles for the dual-sparse GEMM and SpMM,
 * the shape for the analytic baselines, the operand encoding for
 * conv), and a values hook that computes a functional request's
 * output. Operand encodings (profiles, two-level bitmaps, narrow
 * tiles, CSR, the bitmap im2col) resolve through the EncodingCache
 * with ExecutionPlan::resolve() when the timing or the values first
 * need them, never when plan() builds the plan, so a losing Auto
 * candidate pays for no encode its timing does not read.
 */
#include "core/backend.h"

#include "baselines/ampere_sparse_tc.h"
#include "baselines/cusparse_like.h"
#include "baselines/cutlass_like.h"
#include "baselines/zhu_sparse_tc.h"
#include "conv/spconv.h"
#include "core/gemm_operands.h"
#include "core/method_map.h"
#include "gemm/dense_gemm.h"
#include "gemm/spgemm_device.h"
#include "gemm/spmm_device.h"

namespace dstc {

namespace {

/** Per-matrix QuantSpec of one operand at the request datatype
 *  (integer scales are matrix-global: serial fabs-max). */
QuantSpec
specFor(DataType dtype, const Matrix<float> &m)
{
    return QuantSpec::forValues(dtype, m.data().data(),
                                m.data().size());
}

/** The conv pipeline executes FP16 only; quantized datatypes are a
 *  GEMM-path feature for now. */
bool
convDataTypeOk(const KernelRequest &req)
{
    return req.dataType() == DataType::Fp16;
}

/** Timing-path conv operand encoding, in the resolver shape of
 *  gemm_operands.h (conv operands carry no digest). Only the
 *  implicit-sparse encodings synthesize profiles, so only they go
 *  through the cache; the others are analytic in the shape. */
std::shared_ptr<const ConvOperandEncoding>
resolveConvEncoding(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &, bool *hit, ConvMethod cm)
{
    const ConvShape shape = req.shape;
    const Operand::Synthetic w = *req.b.synthetic();
    const Operand::Synthetic x = *req.a.synthetic();
    const uint64_t seed = req.seed;
    const auto build = [=] {
        return encodeConvOperands(shape, cm, w.sparsity, x.sparsity,
                                  seed, w.cluster, x.cluster);
    };
    if (!isImplicitSparse(cm))
        return std::make_shared<const ConvOperandEncoding>(build());
    CacheKey key("conv-encoding");
    key.i32(static_cast<int32_t>(cm));
    key.i32(shape.batch)
        .i32(shape.in_c)
        .i32(shape.in_h)
        .i32(shape.in_w)
        .i32(shape.out_c)
        .i32(shape.kernel)
        .i32(shape.stride)
        .i32(shape.pad);
    key.f64(w.sparsity)
        .f64(x.sparsity)
        .f64(w.cluster)
        .f64(x.cluster)
        .u64(seed);
    return ctx.cache->getOrBuild<ConvOperandEncoding>(key.value(), build,
                                                      hit);
}

// ===================================================================
// Dual-side sparse Tensor Core
// ===================================================================

class DualGemmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    /** Every operand form times from its profile view (the one
     *  SpGEMM timing model), so Auto dispatch and cluster placement
     *  never encode a candidate just to rank it. */
    KernelStats
    timing() override
    {
        SpGemmDevice device(cfg());
        SpGemmOptions o = req_.gemm_options;
        if (req_.functional() && executing()) {
            // Executed without an estimate: time the two-level
            // encodings execution resolves anyway (the encode-once
            // artifact repeated requests reuse) rather than resolve
            // and cache their profiles too.
            resolveEncodings();
            o.functional = false;
            return device.multiplyEncoded(*a_, *b_, o).stats;
        }
        const GemmProfilesView p = resolve(resolveGemmProfiles);
        // Pre-encoded operands carry the authoritative datatype, as
        // multiplyEncoded reads it off their specs.
        if (const TwoLevelBitmapMatrix *a = req_.a.encoded())
            o.dtype = a->spec().dtype;
        return device.timeFromProfiles(*p.a, *p.b, o);
    }

    void
    values(KernelReport &report) override
    {
        resolveEncodings();
        report.d = std::make_shared<const Matrix<float>>(
            SpGemmDevice(cfg()).multiplyValues(*a_, *b_,
                                               req_.gemm_options));
    }

  private:
    /** The two-level encodings of the operands (a pre-encoded pair in
     *  place, concrete matrices through the cache). */
    void
    resolveEncodings()
    {
        if (a_)
            return;
        a_ = resolve(resolveTwoLevel, false);
        b_ = resolve(resolveTwoLevel, true);
    }

    std::shared_ptr<const TwoLevelBitmapMatrix> a_;
    std::shared_ptr<const TwoLevelBitmapMatrix> b_;
};

/**
 * Dual-side sparse SpMM plan: sparse A (narrow 8x1 or wide 32-wide
 * two-level encoding) against a dense streamed B. The timing hook
 * chooses the format from the request's exact density profiles and
 * reports the chosen format's profile stats; values() then encodes A
 * in that format alone. SpmmFormat::Narrow/Wide override the choice.
 */
class DualSpmmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    KernelStats
    timing() override
    {
        const SpmmProfilesView p = resolve(resolveSpmmProfiles);
        if (req_.spmm_format != SpmmFormat::Auto) {
            format_ = req_.spmm_format;
            return formatStats(p, format_);
        }
        KernelStats narrow = formatStats(p, SpmmFormat::Narrow);
        KernelStats wide = formatStats(p, SpmmFormat::Wide);
        const bool pick_narrow = narrow.timeUs() <= wide.timeUs();
        format_ = pick_narrow ? SpmmFormat::Narrow : SpmmFormat::Wide;
        return pick_narrow ? std::move(narrow) : std::move(wide);
    }

    void
    values(KernelReport &report) override
    {
        stats(); // the timing hook chooses the format
        SpmmDevice device(cfg());
        const Matrix<float> &b = *req_.b.matrix();
        const QuantSpec spec_b = specFor(req_.dataType(), b);
        report.d = std::make_shared<const Matrix<float>>(
            format_ == SpmmFormat::Narrow
                ? device.multiplyNarrow(*resolve(resolveNarrowTileA), b,
                                        spec_b, req_.gemm_options)
                : device.multiplyWide(*resolve(resolveTwoLevel, false),
                                      b, spec_b, req_.gemm_options));
    }

  private:
    KernelStats
    formatStats(const SpmmProfilesView &p, SpmmFormat format) const
    {
        SpmmDevice device(cfg());
        return format == SpmmFormat::Narrow
                   ? device.timeNarrowFromProfile(*p.a8, req_.n,
                                                  req_.gemm_options)
                   : device.timeWideFromProfile(*p.a32, req_.n,
                                                req_.gemm_options);
    }

    SpmmFormat format_ = SpmmFormat::Auto; ///< set by timing()
};

// -- shared conv plan (dual / dense / zhu) --------------------------

/**
 * The conv plan of the dual, dense and Zhu backends. Its timing is
 * the one conv timing model (ConvExecutor::timeEncoded) over one
 * operand encoding, for both operand forms. A synthetic request's
 * encoding is resolved through the cache; a functional one encodes
 * its real operands only as far as the timing needs
 * (ConvExecutor::encode) and keeps what it read of the feature map
 * (the bitmap, or the Dual Sparse lowering), so values() starts from
 * there.
 */
class ConvPlan : public ExecutionPlan
{
  public:
    ConvPlan(const Backend &backend, const KernelRequest &req,
             const PlanContext &ctx)
        : ExecutionPlan(backend, req, ctx),
          conv_method_(toConvMethod(method(), req.lowering))
    {
    }

  protected:
    KernelStats
    timing() override
    {
        const ConvExecutor executor(cfg());
        if (req_.functional())
            return executor.timeEncoded(
                req_.shape, conv_method_,
                executor.encode(*req_.a.tensor(), *req_.b.matrix(),
                                req_.shape, conv_method_, options(),
                                &fmap_),
                options());
        return executor.timeEncoded(
            req_.shape, conv_method_,
            *resolve(resolveConvEncoding, conv_method_), options());
    }

    void
    values(KernelReport &report) override
    {
        stats(); // the timing hook encodes the feature map
        report.output = std::make_shared<const Tensor4d>(
            ConvExecutor(cfg()).values(*req_.a.tensor(),
                                       *req_.b.matrix(), req_.shape,
                                       conv_method_, options(),
                                       std::move(fmap_)));
    }

  private:
    /** The conv pipeline partitions over the same compute workers
     *  the session resolved into gemm_options. */
    ConvOptions
    options() const
    {
        return ConvOptions{req_.gemm_options.num_workers};
    }

    ConvMethod conv_method_;
    EncodedFeatureMap fmap_; ///< implicit-sparse methods only
};

class DualSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::DualSparse; }
    const char *name() const override { return "dual-sparse"; }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
        case KernelRequest::Kind::Spmm:
            // Every operand form (SpMM resolves its own A-side
            // encodings, narrow or wide, chosen at plan stage).
            return true;
        case KernelRequest::Kind::Conv:
            // The dual-side design is inherently implicit (the
            // bitmap im2col is part of the datapath, Sec. IV), and
            // the conv pipeline is FP16-only.
            return req.lowering == Lowering::Implicit &&
                   convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(*this, req, ctx);
        if (req.kind == KernelRequest::Kind::Spmm)
            return std::make_unique<DualSpmmPlan>(*this, req, ctx);
        return std::make_unique<DualGemmPlan>(*this, req, ctx);
    }
};

// ===================================================================
// Dense CUTLASS-like Tensor Core
// ===================================================================

class DenseGemmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    /** Analytic in the shape and datatype, for every operand form. */
    KernelStats
    timing() override
    {
        return cutlassGemm(cfg(), req_.m, req_.n, req_.k,
                           req_.dataType());
    }

    void
    values(KernelReport &report) override
    {
        const Matrix<float> &a = *req_.a.matrix();
        const Matrix<float> &b = *req_.b.matrix();
        const DataType dtype = req_.dataType();
        report.d = std::make_shared<const Matrix<float>>(
            DenseGemmDevice(cfg()).multiply(a, b, specFor(dtype, a),
                                            specFor(dtype, b)));
    }
};

class DenseBackend : public Backend
{
  public:
    Method method() const override { return Method::Dense; }
    const char *name() const override { return "dense-cutlass"; }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
        case KernelRequest::Kind::Spmm:
            // Dense GEMM answers SpMM by streaming A as a dense m x k
            // operand (zeros and all) — the format-insensitive
            // floor every sparse path must beat. Pre-encoded
            // two-level operands are only consumable by the
            // dual-sparse kernel.
            return !req.a.encoded();
        case KernelRequest::Kind::Conv:
            // Both conv lowerings, FP16-only conv pipeline.
            return convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(*this, req, ctx);
        // Kind::Spmm shares the dense GEMM plan: same geometry
        // fields, same kernel (A's sparsity is invisible to a dense
        // datapath).
        return std::make_unique<DenseGemmPlan>(*this, req, ctx);
    }
};

// ===================================================================
// The structurally pruning baselines: Zhu vector-wise sparse Tensor
// Core [72] and the Ampere 2:4 sparse Tensor Core
// ===================================================================

/**
 * GEMM plan of both pruning baselines. Their timing is analytic in
 * the shape and datatype alone (the fixed-rate formats cannot use
 * the weights' actual sparsity); concrete functional requests also
 * compute the pruned product.
 */
class PrunedGemmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    KernelStats
    timing() override
    {
        return (zhu() ? zhuGemm : ampereGemm)(cfg(), req_.m, req_.n,
                                              req_.k, req_.dataType());
    }

    void
    values(KernelReport &report) override
    {
        const Matrix<float> &a = *req_.a.matrix();
        const Matrix<float> &b = *req_.b.matrix();
        const DataType dtype = req_.dataType();
        const QuantSpec sa = specFor(dtype, a);
        const QuantSpec sb = specFor(dtype, b);
        report.d = std::make_shared<const Matrix<float>>(
            zhu() ? zhuGemmFunctional(a, b, sa, sb)
                  : ampereGemmFunctional(a, b, sa, sb));
    }

  private:
    bool zhu() const { return method() == Method::ZhuSparse; }
};

class ZhuSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::ZhuSparse; }
    const char *name() const override { return "zhu-vectorwise"; }

    bool
    exact(const KernelRequest &req) const override
    {
        // GEMM prunes B to the fixed 75% format; the explicit conv
        // strategy's timing presumes that prune too. Only the
        // implicit conv path times the weights' actual sparsity.
        return req.kind == KernelRequest::Kind::Conv &&
               req.lowering == Lowering::Implicit;
    }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
            return !req.a.encoded(); // no two-level consumption path
        case KernelRequest::Kind::Spmm:
            // The vector-wise format prunes B; SpMM's B side is
            // dense by definition, so the design has nothing to
            // exploit (and pruning dense B changes the numerics).
            return false;
        case KernelRequest::Kind::Conv:
            // Both Single Sparse conv lowerings, FP16 only.
            return convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(*this, req, ctx);
        return std::make_unique<PrunedGemmPlan>(*this, req, ctx);
    }
};

// ===================================================================
// Ampere 2:4 sparse Tensor Core
// ===================================================================

class AmpereSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::AmpereSparse; }
    const char *name() const override { return "ampere-2to4"; }

    bool
    exact(const KernelRequest &req) const override
    {
        (void)req;
        return false; // 2:4 pruning always changes the numerics
    }

    bool
    supports(const KernelRequest &req) const override
    {
        // GEMM only: the 2:4 production design has no conv strategy
        // in the Fig. 22 comparison, and its 2:4 prune has no handle
        // on SpMM's dense B side.
        return req.kind == KernelRequest::Kind::Gemm &&
               !req.a.encoded();
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        return std::make_unique<PrunedGemmPlan>(*this, req, ctx);
    }
};

// ===================================================================
// cuSPARSE-like CSR SpGEMM
// ===================================================================

class CusparseGemmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    /** A concrete request times its real CSR products; every other
     *  form is the expected-value model. */
    KernelStats
    timing() override
    {
        if (!req_.functional())
            return expectedStats();
        resolveOperands();
        return cusparseGemmTime(cfg(), *a_csr_, *b_csr_);
    }

    void
    values(KernelReport &report) override
    {
        resolveOperands();
        const DataType dtype = req_.dataType();
        report.d = std::make_shared<const Matrix<float>>(
            csrGemm(*a_csr_, *b_csr_, specFor(dtype, *req_.a.matrix()),
                    specFor(dtype, *req_.b.matrix()))
                .decode());
    }

    /**
     * The one documented gap between a ranking and the stats: a
     * concrete request is ranked by the expected-value model at its
     * measured densities (the plan's operand memo counts them)
     * instead of paying the CSR encode its executed clock needs.
     * AutoEstimateTest.NoMisrankingAtBackendCrossovers bounds the
     * effect.
     */
    double
    estimate() override
    {
        return req_.functional() ? expectedStats().timeUs()
                                 : stats().timeUs();
    }

  private:
    /** The CSR encodings stay raw FP32 (dtype-invariant, shareable
     *  across request datatypes); quantization happens per value
     *  inside the multiply. The latency-limited timing model is
     *  insensitive to the lane width. */
    void
    resolveOperands()
    {
        if (a_csr_)
            return;
        a_csr_ = resolve(resolveCsr, false);
        b_csr_ = resolve(resolveCsr, true);
    }

    KernelStats
    expectedStats() const
    {
        return cusparseGemmTimeExpected(cfg(), req_.m, req_.n, req_.k,
                                        density(false), density(true));
    }

    /** Operand::density, with a concrete matrix's non-zero count read
     *  from the operand memo instead of a second scan (the same
     *  arithmetic as wordSparsity, so the estimate is unchanged). */
    double
    density(bool b_side) const
    {
        const Operand &side = b_side ? req_.b : req_.a;
        const Matrix<float> *m = side.matrix();
        if (!m)
            return side.density();
        const int64_t nnz =
            (b_side ? digests().b(*m) : digests().a(*m)).nnz;
        const size_t total = m->size();
        const double sparsity =
            total == 0 ? 0.0
                       : 1.0 - static_cast<double>(nnz) /
                                   static_cast<double>(total);
        return 1.0 - sparsity;
    }

    std::shared_ptr<const CsrMatrix> a_csr_;
    std::shared_ptr<const CsrMatrix> b_csr_;
};

/**
 * Library-style CSR SpMM plan (cusparseSpMM shape): one row-parallel
 * kernel. The functional path accumulates in ascending-k order from
 * spec-quantized operands, so its output is bitwise identical to the
 * dual-sparse SpMM paths — the baseline the gate compares against is
 * numerically the very same computation.
 */
class CusparseSpmmPlan : public ExecutionPlan
{
  public:
    using ExecutionPlan::ExecutionPlan;

  protected:
    /** The model depends on A only through its non-zero count, so
     *  every operand form prices nnzA() without the CSR encode. */
    KernelStats
    timing() override
    {
        return cusparseSpmmTime(cfg(), req_.m, nnzA() * req_.n,
                                req_.m * req_.n);
    }

    void
    values(KernelReport &report) override
    {
        const Matrix<float> &b = *req_.b.matrix();
        const DataType dtype = req_.dataType();
        report.d = std::make_shared<const Matrix<float>>(
            csrSpmm(*resolve(resolveCsr, false), b,
                    specFor(dtype, *req_.a.matrix()), specFor(dtype, b)));
    }

  private:
    /**
     * A's non-zero count: the operand memo's count for a concrete A
     * (the count its CSR encode finds), else the density round trip
     * density * m * k the profile and synthetic requests price.
     */
    int64_t
    nnzA() const
    {
        if (const Matrix<float> *a = req_.a.matrix())
            return digests().a(*a).nnz;
        return static_cast<int64_t>(
            req_.a.density() * static_cast<double>(req_.m) * req_.k);
    }
};

class CusparseLikeBackend : public Backend
{
  public:
    Method method() const override { return Method::CusparseLike; }
    const char *name() const override { return "cusparse-like"; }

    bool
    supports(const KernelRequest &req) const override
    {
        return (req.kind == KernelRequest::Kind::Gemm ||
                req.kind == KernelRequest::Kind::Spmm) &&
               !req.a.encoded();
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Spmm)
            return std::make_unique<CusparseSpmmPlan>(*this, req, ctx);
        return std::make_unique<CusparseGemmPlan>(*this, req, ctx);
    }
};

} // namespace

std::unique_ptr<Backend>
makeDualSparseBackend()
{
    return std::make_unique<DualSparseBackend>();
}

std::unique_ptr<Backend>
makeDenseBackend()
{
    return std::make_unique<DenseBackend>();
}

std::unique_ptr<Backend>
makeZhuSparseBackend()
{
    return std::make_unique<ZhuSparseBackend>();
}

std::unique_ptr<Backend>
makeAmpereSparseBackend()
{
    return std::make_unique<AmpereSparseBackend>();
}

std::unique_ptr<Backend>
makeCusparseLikeBackend()
{
    return std::make_unique<CusparseLikeBackend>();
}

} // namespace dstc
