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

/** Stable CLI/parse token of a method ("auto", "dual", ...). */
const char *methodToken(Method method);

/** Human-readable method name. */
const char *methodName(Method method);

/** Parse a CLI token into a Method; false on unknown token. */
bool parseMethod(const std::string &token, Method *out);

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

/** Stable CLI/parse token of an SpMM format ("auto", "narrow",
 *  "wide"). */
const char *spmmFormatToken(SpmmFormat format);

/** Parse a CLI token into an SpmmFormat; false on unknown token. */
bool parseSpmmFormat(const std::string &token, SpmmFormat *out);

/** Convolution lowering strategy (the Explicit/Implicit split of
 *  Fig. 22's legend). */
enum class Lowering
{
    Implicit, ///< fused im2col (bitmap-based for the sparse methods)
    Explicit, ///< materialize the lowered matrix in DRAM first
};

/**
 * Worker-thread budget of a request or session. -1 inherits the next
 * level down, so the resolution order per request is
 *
 *   KernelRequest::resources
 *     -> SessionOptions::resources
 *     -> defaults (compute 0 = shared pool, encode 1 = serial).
 *
 * Encode defaults to serial because requests batched through
 * submitBatch already saturate the pool. Every worker partitioning in
 * the library is bitwise deterministic, so any setting changes
 * wall-clock only, never results.
 */
struct ExecutionResources
{
    /** Workers of the kernel-internal tile loops (SpGEMM output
     *  tiles, conv lowered columns): 0 = shared pool, 1 = serial,
     *  N = cap, -1 = inherit. */
    int compute_workers = -1;

    /** Workers of the word-parallel operand encoders: same contract,
     *  -1 = inherit. */
    int encode_workers = -1;
};

/**
 * One unit of work for the registry: a GEMM or a convolution at a
 * sparsity operating point, under a chosen (or Auto) method.
 *
 * Operands come in three flavors, checked in this order by the
 * backends:
 *  - pre-encoded (`a_encoded`/`b_encoded`, dual-sparse GEMM only):
 *    the encode-once / multiply-many path;
 *  - concrete (`a`/`b` matrices, `input` tensor): functional
 *    execution with values, timed from the data's actual sparsity;
 *  - synthetic (none of the above): the timing-only path used by the
 *    sweeps; profiles are synthesized from the `*_sparsity`,
 *    `*_cluster` and `seed` fields (deterministic per seed).
 *
 * All operand pointers are non-owning and must outlive plan and
 * execution (batched runs included).
 */
struct KernelRequest
{
    enum class Kind
    {
        Gemm,
        Conv,
        /** Sparse A x dense B (the real-matrix workload): only A is
         *  encoded; B streams through dense. Geometry reuses the
         *  GEMM fields (m, n, k, a_sparsity/a_cluster). */
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
     * Operand sparsity operating point. For GEMM, `a` is the left
     * (activation) operand and `b` the right (weight) operand; for
     * convolution, `a_*` describes the activations and `b_*` the
     * weights.
     */
    double a_sparsity = 0.0;
    double b_sparsity = 0.0;
    double a_cluster = 1.0;
    double b_cluster = 1.0;

    /** Dense GEMM only: use the outer-product datapath. */
    bool outer_product = false;

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

    /** Per-request worker override (see ExecutionResources). */
    ExecutionResources resources;

    // -- convolution geometry (kind == Conv) --------------------------
    ConvShape shape;
    Lowering lowering = Lowering::Implicit;

    // -- optional concrete operands (non-owning) ----------------------
    const Matrix<float> *a = nullptr; ///< GEMM left operand
    const Matrix<float> *b = nullptr; ///< GEMM right operand / weights
    const SparsityProfile *a_profile = nullptr;
    const SparsityProfile *b_profile = nullptr;
    const TwoLevelBitmapMatrix *a_encoded = nullptr;
    const TwoLevelBitmapMatrix *b_encoded = nullptr;
    const Tensor4d *input = nullptr;  ///< conv activations

    // -- factories ----------------------------------------------------

    /** Timing-only GEMM at a synthetic operating point. */
    static KernelRequest
    gemm(int64_t m, int64_t n, int64_t k, double a_sparsity = 0.0,
         double b_sparsity = 0.0)
    {
        KernelRequest r;
        r.kind = Kind::Gemm;
        r.m = m;
        r.n = n;
        r.k = k;
        r.a_sparsity = a_sparsity;
        r.b_sparsity = b_sparsity;
        return r;
    }

    /** Functional GEMM over concrete operands. */
    static KernelRequest
    gemm(const Matrix<float> &a, const Matrix<float> &b)
    {
        KernelRequest r;
        r.kind = Kind::Gemm;
        r.m = a.rows();
        r.n = b.cols();
        r.k = a.cols();
        r.a = &a;
        r.b = &b;
        return r;
    }

    /** Timing-only GEMM from pre-extracted popcount profiles. The
     *  profiles record their true extents, so m/n are the real GEMM
     *  shape, not the tile-padded ceil/32*32 — Auto's dense and
     *  cusparse estimates see the same geometry the caller has. */
    static KernelRequest
    gemm(const SparsityProfile &a, const SparsityProfile &b)
    {
        KernelRequest r;
        r.kind = Kind::Gemm;
        r.m = a.extent();
        r.n = b.extent();
        r.k = a.k();
        r.a_profile = &a;
        r.b_profile = &b;
        return r;
    }

    /** Functional SpMM: sparse A (concrete values) times dense B. */
    static KernelRequest
    spmm(const Matrix<float> &a, const Matrix<float> &b)
    {
        KernelRequest r;
        r.kind = Kind::Spmm;
        r.m = a.rows();
        r.n = b.cols();
        r.k = a.cols();
        r.a = &a;
        r.b = &b;
        return r;
    }

    /** Timing-only SpMM from a pre-extracted A-side popcount profile
     *  at narrow (8-row strip) granularity; B is dense with @p n
     *  columns. */
    static KernelRequest
    spmm(const SparsityProfile &a, int64_t n)
    {
        KernelRequest r;
        r.kind = Kind::Spmm;
        r.m = a.extent();
        r.n = n;
        r.k = a.k();
        r.a_profile = &a;
        return r;
    }

    /** Timing-only SpMM at a synthetic A-sparsity operating point. */
    static KernelRequest
    spmm(int64_t m, int64_t n, int64_t k, double a_sparsity)
    {
        KernelRequest r;
        r.kind = Kind::Spmm;
        r.m = m;
        r.n = n;
        r.k = k;
        r.a_sparsity = a_sparsity;
        return r;
    }

    /** Timing-only convolution at a synthetic operating point. */
    static KernelRequest
    conv(const ConvShape &shape, double weight_sparsity = 0.0,
         double act_sparsity = 0.0)
    {
        KernelRequest r;
        r.kind = Kind::Conv;
        r.shape = shape;
        r.b_sparsity = weight_sparsity;
        r.a_sparsity = act_sparsity;
        return r;
    }

    /** Functional convolution over concrete operands. */
    static KernelRequest
    conv(const Tensor4d &input, const Matrix<float> &weights,
         const ConvShape &shape)
    {
        KernelRequest r;
        r.kind = Kind::Conv;
        r.shape = shape;
        r.input = &input;
        r.b = &weights;
        return r;
    }

    /** True when the request carries concrete operand values. */
    bool
    functional() const
    {
        return (kind == Kind::Gemm &&
                ((a && b) || (a_encoded && b_encoded))) ||
               (kind == Kind::Spmm && a && b) ||
               (kind == Kind::Conv && input && b);
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

    /** Synthetic operating point: (A, B) cluster factors. */
    KernelRequest &
    withClusters(double a_value, double b_value)
    {
        a_cluster = a_value;
        b_cluster = b_value;
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

    KernelRequest &
    withResources(ExecutionResources value)
    {
        resources = value;
        return *this;
    }
};

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
