/**
 * @file
 * Whole-model execution: run every layer of a DnnModel under a
 * chosen strategy and aggregate per-layer and full-model statistics.
 * This is the library API behind the Fig. 22 panels; the benches are
 * thin printers over it.
 *
 * A model run is a batch of KernelRequests — one per layer — built
 * by layerRequests() and executed as one Session::runBatch() on the
 * process-shared pool, whose workers also run the layers' own tile
 * loops; the statistics are bitwise identical to running the layers
 * serially. A Cluster runs the same batch data-parallel through its
 * own runBatch().
 */
#ifndef DSTC_MODEL_RUNNER_H
#define DSTC_MODEL_RUNNER_H

#include <string>
#include <vector>

#include "core/session.h"
#include "model/zoo.h"

namespace dstc {

/** Execution strategy at model granularity. */
enum class ModelMethod
{
    DenseExplicit,        ///< conv layers only
    DenseImplicit,        ///< dense GEMM for GEMM layers
    SingleSparseExplicit, ///< Sparse TC [72] (+ explicit im2col)
    SingleSparseImplicit, ///< our im2col, weight sparsity only
    DualSparseImplicit,   ///< the full dual-side design
    Auto,                 ///< per-layer registry dispatch
};

/** One row of the model strategy table: the registry method and
 *  lowering every layer of a ModelMethod runs under. */
struct ModelStrategy
{
    ModelMethod value;
    Method method;
    Lowering lowering;
};

inline constexpr ModelStrategy kModelMethods[] = {
    {ModelMethod::DenseExplicit, Method::Dense, Lowering::Explicit},
    {ModelMethod::DenseImplicit, Method::Dense, Lowering::Implicit},
    {ModelMethod::SingleSparseExplicit, Method::ZhuSparse,
     Lowering::Explicit},
    {ModelMethod::SingleSparseImplicit, Method::ZhuSparse,
     Lowering::Implicit},
    {ModelMethod::DualSparseImplicit, Method::DualSparse,
     Lowering::Implicit},
    {ModelMethod::Auto, Method::Auto, Lowering::Implicit},
};
static_assert(listsEveryValue(kModelMethods, ModelMethod::Auto));

/** The Fig. 22 legend name of a model strategy: its conv strategy's
 *  name, or "Auto". */
const char *legendName(ModelMethod method);

/** Per-layer outcome of a model run. */
struct LayerResult
{
    std::string name;
    KernelStats stats;

    /** The backend that executed the layer (informative under
     *  ModelMethod::Auto). */
    std::string backend;
};

/** Aggregated outcome of a model run. */
struct ModelRunResult
{
    std::string model;
    ModelMethod method;
    std::vector<LayerResult> layers;

    /** Sum of layer kernel times. */
    double totalTimeUs() const;
};

/** Runs model zoo workloads on a Session (timing-only). */
class ModelRunner
{
  public:
    explicit ModelRunner(Session &session) : session_(session) {}

    /**
     * The per-layer KernelRequests of @p model under @p method.
     * Deterministic for a given @p seed; sparsity patterns follow
     * each layer's (sparsity, cluster) operating point. @p dtype sets
     * the datatype of every GEMM layer; conv layers always run the
     * FP16 datapath (the conv pipeline has no quantized lowering).
     */
    static std::vector<KernelRequest>
    layerRequests(const DnnModel &model, ModelMethod method,
                  uint64_t seed = 1,
                  DataType dtype = DataType::Fp16);

    /**
     * Time every layer of @p model under @p method as one batch on
     * the process-shared pool; layers are reported in order.
     */
    ModelRunResult run(const DnnModel &model, ModelMethod method,
                       uint64_t seed = 1,
                       DataType dtype = DataType::Fp16) const;

  private:
    Session &session_;
};

} // namespace dstc

#endif // DSTC_MODEL_RUNNER_H
