/**
 * @file
 * The uniform request/report protocol of the kernel registry.
 *
 * Every execution path of the library — the dual-side sparse Tensor
 * Core SpGEMM/SpCONV and the four baselines it is evaluated against —
 * answers the same shape of question: "run this GEMM or convolution
 * under this method at this operating point". A KernelRequest states
 * the question, a Backend turns it into an ExecutionPlan (encoding
 * the operands, possibly from the EncodingCache), and executing the
 * plan yields a KernelReport.
 *
 * Method::Auto asks the registry to pick the fastest backend from the
 * operands' sparsity profiles (see KernelRegistry::plan).
 */
#ifndef DSTC_CORE_KERNEL_REQUEST_H
#define DSTC_CORE_KERNEL_REQUEST_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "common/datatype.h"
#include "conv/spconv.h"
#include "gemm/spgemm_device.h"
#include "im2col/conv_shape.h"
#include "tensor/tensor4d.h"
#include "timing/stats.h"

namespace dstc {

/** Execution method at registry granularity. */
enum class Method
{
    Auto,         ///< dispatch to the profiled fastest backend
    DualSparse,   ///< the paper's dual-side sparse Tensor Core
    Dense,        ///< CUTLASS-like dense Tensor Core GEMM
    ZhuSparse,    ///< Sparse TC [72], vector-wise 75% weights
    AmpereSparse, ///< A100-style 2:4 structured weights
    CusparseLike, ///< CSR SpGEMM on the CUDA cores
    Hybrid,       ///< density-partitioned tile routing across backends
};

/** The methods, their CLI tokens and display names. */
inline constexpr Term<Method> kMethods[] = {
    {Method::Auto, "auto", "Auto"},
    {Method::DualSparse, "dual", "Dual-Side Sparse TC"},
    {Method::Dense, "dense", "Dense TC (CUTLASS-like)"},
    {Method::ZhuSparse, "zhu", "Sparse TC (vector-wise 75%)"},
    {Method::AmpereSparse, "ampere", "Ampere 2:4 Sparse TC"},
    {Method::CusparseLike, "cusparse", "cuSPARSE-like CSR SpGEMM"},
    {Method::Hybrid, "hybrid", "Hybrid (density-partitioned)"},
};
static_assert(listsEveryValue(kMethods, Method::Hybrid));

/**
 * Knobs of Method::Hybrid (GEMM and SpMM): partition the A-side row
 * groups of one request — 32-row tile groups for GEMM, 8-row strips
 * for SpMM — by exact per-group density and route each class to its
 * cost-model-fastest backend (dense-ish groups to the
 * dense/WMMA datapath, sparse groups to the dual-sparse outer
 * product, and — when B is exactly 2:4-conformant, so the prune is
 * the identity — the ampere backend). See src/core/hybrid.h.
 */
struct HybridOptions
{
    /**
     * Manual density cut for tests: groups with density >= threshold
     * form the high-density class, the rest the low-density class
     * (per-class backend choice stays with the cost model). Negative
     * (the default) lets the cost model pick the min-total split from
     * a ladder of observed group densities, no-split included.
     */
    double threshold = -1.0;
};

/**
 * Storage format of the sparse A operand of an SpMM request. Auto
 * lets the plan-stage cost model pick per request off the exact
 * density profile; the explicit values pin it (tests, probes).
 */
enum class SpmmFormat
{
    Auto,   ///< cost model picks narrow vs wide per request
    Narrow, ///< 8x1-vector narrow-tile encoding (ultra-sparse)
    Wide,   ///< 32-wide two-level encoding (DNN-style sparsity)
};

/** The SpMM formats and their CLI tokens. */
inline constexpr Term<SpmmFormat> kSpmmFormats[] = {
    {SpmmFormat::Auto, "auto"},
    {SpmmFormat::Narrow, "narrow"},
    {SpmmFormat::Wide, "wide"},
};
static_assert(listsEveryValue(kSpmmFormats, SpmmFormat::Wide));

/** Convolution lowering strategy (the Explicit/Implicit split of
 *  Fig. 22's legend). */
enum class Lowering
{
    Implicit, ///< fused im2col (bitmap-based for the sparse methods)
    Explicit, ///< materialize the lowered matrix in DRAM first
};

/**
 * One side of a request's outer product — the left (activation) or
 * the right (weight) operand — in exactly one of five forms:
 *  - Synthetic{sparsity, cluster} (the default): a timing-only
 *    operating point whose pattern is drawn from the request's seed
 *    (deterministic per seed);
 *  - a concrete Matrix<float>: functional execution with values,
 *    timed from the data's actual sparsity;
 *  - a concrete Tensor4d: the activations of a functional conv;
 *  - a SparsityProfile: timing-only, from pre-extracted popcounts;
 *  - a pre-encoded TwoLevelBitmapMatrix: the encode-once /
 *    multiply-many path of the dual-sparse GEMM.
 *
 * Which pairs each request kind accepts is one rule, operandsValid().
 * Every pointer form is non-owning: the referenced object must
 * outlive plan and execution (batched runs included).
 */
struct Operand
{
    /** A synthetic operating point: non-zero fraction 1 - sparsity,
     *  non-zeros clustered by the factor `cluster` (1 = uniform). */
    struct Synthetic
    {
        double sparsity = 0.0;
        double cluster = 1.0;
    };

    std::variant<Synthetic, const Matrix<float> *, const Tensor4d *,
                 const SparsityProfile *, const TwoLevelBitmapMatrix *>
        form;

    Operand() : form(Synthetic{}) {}
    Operand(Synthetic point) : form(point) {}
    Operand(const Matrix<float> &m) : form(&m) {}
    Operand(const Tensor4d &t) : form(&t) {}
    Operand(const SparsityProfile &p) : form(&p) {}
    Operand(const TwoLevelBitmapMatrix &e) : form(&e) {}

    // The form's payload, or null when the operand has another form.
    const Synthetic *
    synthetic() const
    {
        return std::get_if<Synthetic>(&form);
    }
    const Matrix<float> *matrix() const { return get<Matrix<float>>(); }
    const Tensor4d *tensor() const { return get<Tensor4d>(); }
    const SparsityProfile *profile() const { return get<SparsityProfile>(); }
    const TwoLevelBitmapMatrix *
    encoded() const
    {
        return get<TwoLevelBitmapMatrix>();
    }

    /**
     * Non-zero fraction of the operand: 1 - sparsity at a synthetic
     * point, the branchless word count of a matrix, the exact count
     * of a profile over its true extent (so density * m * k recovers
     * the nnz for ragged shapes too) or of an encoding.
     */
    double density() const;

  private:
    template <class T>
    const T *
    get() const
    {
        const T *const *p = std::get_if<const T *>(&form);
        return p ? *p : nullptr;
    }
};

/**
 * One unit of work for the registry: a GEMM, an SpMM or a convolution
 * under a chosen (or Auto) method. The left operand `a` and the right
 * operand `b` each take one Operand form; the pair must match the
 * kind (operandsValid):
 *  - GEMM: both synthetic, both matrices, both profiles or both
 *    pre-encoded;
 *  - SpMM: a synthetic or strip-profile (tile = 8) A beside a
 *    synthetic (dense) B, or two matrices;
 *  - conv: a synthetic pair (activation, weight sparsity), or the
 *    input Tensor4d in `a` with the weight Matrix in `b`.
 * Concrete operands must also agree in extent: GEMM/SpMM matrices on
 * K, and a conv's tensor and out_c x (in_c * k * k) weights on its
 * shape.
 */
struct KernelRequest
{
    enum class Kind
    {
        Gemm,
        Conv,
        /** Sparse A x dense B (the real-matrix workload): only A is
         *  encoded; B streams through dense. Geometry reuses the
         *  GEMM fields (m, n, k). */
        Spmm,
    };

    Kind kind = Kind::Gemm;
    Method method = Method::Auto;

    /** Free-form label echoed into the report (e.g. a layer name). */
    std::string tag;

    /** Seed of the synthetic operand patterns. */
    uint64_t seed = 1;

    // -- GEMM geometry (kind == Gemm) ---------------------------------
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;

    /**
     * Dual-sparse knobs (tiling, functional, merge model). tile_k
     * (the two-level K-chunk depth) is the one tiling knob; the
     * kWarpTile x kWarpTile warp tile is fixed by the Tensor Core's
     * accumulation buffer (Sec. III-B). num_workers also partitions
     * the functional conv pipeline.
     */
    SpGemmOptions gemm_options;

    /** Method::Hybrid knobs (ignored by every other method). */
    HybridOptions hybrid_options;

    /** SpMM only: A-operand storage format (Auto = cost model). */
    SpmmFormat spmm_format = SpmmFormat::Auto;

    // -- convolution geometry (kind == Conv) --------------------------
    ConvShape shape;
    Lowering lowering = Lowering::Implicit;

    /** Left operand: GEMM/SpMM A, conv activations. */
    Operand a;
    /** Right operand: GEMM B, SpMM's dense B, conv weights. */
    Operand b;

    // -- factories ----------------------------------------------------

    /** Timing-only GEMM at a synthetic operating point. */
    static KernelRequest
    gemm(int64_t m, int64_t n, int64_t k, double a_sparsity = 0.0,
         double b_sparsity = 0.0)
    {
        return make(Kind::Gemm, m, n, k, Operand::Synthetic{a_sparsity},
                    Operand::Synthetic{b_sparsity});
    }

    /** Functional GEMM over concrete operands. */
    static KernelRequest
    gemm(const Matrix<float> &a, const Matrix<float> &b)
    {
        return make(Kind::Gemm, a.rows(), b.cols(), a.cols(), a, b);
    }

    /** Timing-only GEMM from pre-extracted popcount profiles. The
     *  profiles record their true extents, so m/n are the real GEMM
     *  shape, not the tile-padded ceil/32*32 — Auto's dense and
     *  cusparse estimates see the same geometry the caller has. */
    static KernelRequest
    gemm(const SparsityProfile &a, const SparsityProfile &b)
    {
        return make(Kind::Gemm, a.extent(), b.extent(), a.k(), a, b);
    }

    /** Functional SpMM: sparse A (concrete values) times dense B. */
    static KernelRequest
    spmm(const Matrix<float> &a, const Matrix<float> &b)
    {
        return make(Kind::Spmm, a.rows(), b.cols(), a.cols(), a, b);
    }

    /** Timing-only SpMM from a pre-extracted A-side popcount profile
     *  at narrow (8-row strip) granularity; B is dense with @p n
     *  columns. */
    static KernelRequest
    spmm(const SparsityProfile &a, int64_t n)
    {
        return make(Kind::Spmm, a.extent(), n, a.k(), a, Operand());
    }

    /** Timing-only SpMM at a synthetic A-sparsity operating point. */
    static KernelRequest
    spmm(int64_t m, int64_t n, int64_t k, double a_sparsity)
    {
        return make(Kind::Spmm, m, n, k, Operand::Synthetic{a_sparsity},
                    Operand());
    }

    /** Timing-only convolution at a synthetic operating point. */
    static KernelRequest
    conv(const ConvShape &shape, double weight_sparsity = 0.0,
         double act_sparsity = 0.0)
    {
        KernelRequest r =
            make(Kind::Conv, 0, 0, 0, Operand::Synthetic{act_sparsity},
                 Operand::Synthetic{weight_sparsity});
        r.shape = shape;
        return r;
    }

    /** Functional convolution over concrete operands. */
    static KernelRequest
    conv(const Tensor4d &input, const Matrix<float> &weights,
         const ConvShape &shape)
    {
        KernelRequest r = make(Kind::Conv, 0, 0, 0, input, weights);
        r.shape = shape;
        return r;
    }

    /** True when a valid request carries concrete operand values
     *  (matrices, a conv input tensor, or pre-encoded operands). */
    bool
    functional() const
    {
        return a.matrix() || a.tensor() || a.encoded();
    }

    /**
     * The request's operand/output datatype (the DataType axis).
     * Stored on gemm_options so the device layer and the encoding
     * cache keys read one field; withDataType is the request-level
     * way to set it. Conv requests execute FP16 only.
     */
    DataType dataType() const { return gemm_options.dtype; }

    // -- named builders -----------------------------------------------
    //
    // Chainable setters over the factories above:
    //
    //   auto req = KernelRequest::gemm(a, b)
    //                  .withDataType(DataType::Int8)
    //                  .withMethod(Method::DualSparse)
    //                  .withTag("layer3");
    //
    // Each returns *this, so a chain stays a single expression.

    KernelRequest &
    withMethod(Method value)
    {
        method = value;
        return *this;
    }

    KernelRequest &
    withTag(std::string value)
    {
        tag = std::move(value);
        return *this;
    }

    KernelRequest &
    withSeed(uint64_t value)
    {
        seed = value;
        return *this;
    }

    KernelRequest &
    withDataType(DataType value)
    {
        gemm_options.dtype = value;
        return *this;
    }

    /** Synthetic operating point: (A, B) cluster factors. A side
     *  in another form has its own pattern and keeps it. */
    KernelRequest &
    withClusters(double a_value, double b_value)
    {
        if (auto *point = std::get_if<Operand::Synthetic>(&a.form))
            point->cluster = a_value;
        if (auto *point = std::get_if<Operand::Synthetic>(&b.form))
            point->cluster = b_value;
        return *this;
    }

    /** Compute values (true) or only time (false). */
    KernelRequest &
    withFunctional(bool value)
    {
        gemm_options.functional = value;
        return *this;
    }

    KernelRequest &
    withLowering(Lowering value)
    {
        lowering = value;
        return *this;
    }

    /** Pin the Method::Hybrid density cut. */
    KernelRequest &
    withHybridThreshold(double value)
    {
        hybrid_options.threshold = value;
        return *this;
    }

    /** Pin the SpMM A-operand format (default Auto = cost model). */
    KernelRequest &
    withSpmmFormat(SpmmFormat value)
    {
        spmm_format = value;
        return *this;
    }

  private:
    static KernelRequest
    make(Kind kind, int64_t m, int64_t n, int64_t k, Operand a,
         Operand b)
    {
        KernelRequest r;
        r.kind = kind;
        r.m = m;
        r.n = n;
        r.k = k;
        r.a = a;
        r.b = b;
        return r;
    }
};

/**
 * The one rule on operand form pairs (see KernelRequest): true when
 * @p request's `a` and `b` forms are a pair its kind accepts and any
 * concrete operands agree in extent.
 * KernelRegistry::supports answers false and KernelRegistry::plan
 * panics on any other pair.
 */
bool operandsValid(const KernelRequest &request);

/** Outcome of executing one KernelRequest. */
struct KernelReport
{
    KernelStats stats;

    /** The concrete method that ran (never Auto). */
    Method method = Method::Auto;

    /** Name of the backend that executed the plan. */
    std::string backend;

    /** The request's tag, echoed back. */
    std::string tag;

    /** At least one encoded operand was served from the cache. */
    bool encode_cache_hit = false;

    /**
     * Index of the Cluster device that executed the request (-1 when
     * the request ran on a plain single-device Session). The stats
     * are a pure function of the request plus that device's
     * GpuConfig, so a report is reproducible by re-running the
     * request on a fresh Session with the same config.
     */
    int device = -1;

    /**
     * The plan-stage time estimate that drove Method::Auto dispatch
     * (0 when the estimate was never computed).
     */
    double planned_us = 0.0;

    /** Functional GEMM output (null on timing-only runs). */
    std::shared_ptr<const Matrix<float>> d;

    /** Functional convolution output (null on timing-only runs). */
    std::shared_ptr<const Tensor4d> output;

    double timeUs() const { return stats.timeUs(); }
};

} // namespace dstc

#endif // DSTC_CORE_KERNEL_REQUEST_H
