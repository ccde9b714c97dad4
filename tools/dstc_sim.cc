/**
 * @file
 * dstc_sim — command-line front end to the simulator, for exploring
 * operating points without writing code. All execution goes through
 * the Session / KernelRegistry plan-execute API.
 *
 * Each command form is one row of kCommands: its positionals and
 * flags, declared once and validated by cli_flags, and its run
 * function. Run `dstc_sim` with no arguments for the usage generated
 * from that table (README.md's CLI block is that output). Single-
 * device forms run on the V100 machine model, or on the A100-class
 * one with --a100; cluster and serve take a --devices list instead.
 * Unknown commands, flags or flag values, and flags the chosen form
 * does not read, are rejected with an error (exit code 2) instead of
 * silently falling back to defaults.
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cli_flags.h"
#include "common/table.h"
#include "core/cluster.h"
#include "core/gemm_operands.h"
#include "core/hybrid.h"
#include "core/session.h"
#include "gemm/spmm_device.h"
#include "hwmodel/area_power.h"
#include "hwmodel/energy_model.h"
#include "model/runner.h"
#include "serve/serving.h"
#include "sparse/mtx_io.h"
#include "sparse/narrow_tile.h"

using namespace dstc;

namespace {

std::string
join(const std::vector<std::string> &words, const char *separator)
{
    std::string text;
    for (const std::string &word : words)
        text += (text.empty() ? "" : separator) + word;
    return text;
}

const Term<DnnModel (*)()> kZoo[] = {{makeVgg16, "vgg16"},
                                     {makeResnet18, "resnet18"},
                                     {makeMaskRcnn, "maskrcnn"},
                                     {makeBertBase, "bert"},
                                     {makeRnnLM, "rnn"}};

/** The model strategies --method offers. */
const Term<ModelMethod> kModelMethodChoices[] = {
    {ModelMethod::Auto, "auto"},
    {ModelMethod::DualSparseImplicit, "dual"},
    {ModelMethod::DenseImplicit, "dense"},
    {ModelMethod::SingleSparseImplicit, "single"}};

const Term<GpuConfig (*)()> kDeviceModels[] = {
    {GpuConfig::v100, "v100"},
    {GpuConfig::a100Like, "a100"},
    {GpuConfig::futureGpu, "future"}};

/** The value a Text flag's validated token names in @p table. */
template <class T, size_t N>
T
flagValue(const CliArgs &args, const char *name, const char *fallback,
          const Term<T> (&table)[N])
{
    return parseToken(table, args.flag(name, fallback)).value();
}

// -- declarations shared by several command forms --------------------

const ArgSpec kA100 = {"a100", ArgKind::Presence};
const ArgSpec kSeed = {"seed", ArgKind::U64};
const ArgSpec kASparsity = {"a-sparsity", ArgKind::Number,
                            ArgRange::Fraction};
const ArgSpec kBSparsity = {"b-sparsity", ArgKind::Number,
                            ArgRange::Fraction};
const ArgSpec kCluster = {"cluster", ArgKind::Number,
                          ArgRange::AtLeastOne};
const ArgSpec kHybridThreshold = {"hybrid-threshold", ArgKind::Number};
const ArgSpec kDtype = {"dtype", ArgKind::Text, ArgRange::Any,
                        tokensOf(kDataTypes)};
const ArgSpec kFormat = {"format", ArgKind::Text, ArgRange::Any,
                         tokensOf(kSpmmFormats)};
const ArgSpec kSpmmMethod = {"method", ArgKind::Text, ArgRange::Any,
                             {"auto", "dual", "dense", "cusparse",
                              "hybrid"}};
const ArgSpec kModelMethod = {"method", ArgKind::Text, ArgRange::Any,
                              tokensOf(kModelMethodChoices)};
const ArgSpec kDevices = {"devices"};
const ArgSpec kModel = {"model", ArgKind::Text, ArgRange::Any,
                        tokensOf(kZoo), true};
/** A zoo model, or the resnet18 + bert "mix" (serve only). */
const ArgSpec kServePool = {"model", ArgKind::Text, ArgRange::Any,
                            [] {
                                auto pools = tokensOf(kZoo);
                                pools.push_back("mix");
                                return pools;
                            }(),
                            true};
const std::vector<ArgSpec> kMnk = {
    {"M", ArgKind::Int, ArgRange::Positive, {}, true},
    {"N", ArgKind::Int, ArgRange::Positive, {}, true},
    {"K", ArgKind::Int, ArgRange::Positive, {}, true}};

/** Positional @p i, validated as a positive dimension. */
int64_t
dimArg(const CliArgs &args, size_t i)
{
    return std::atoll(args.positional[i].c_str());
}

/**
 * --method and --dtype of a GEMM-shaped request (defaults: dual,
 * fp16). The hybrid composer has no integer datapath (per-class
 * quantization scales would disagree), so that pair is refused.
 */
bool
parseMethodAndDtype(const CliArgs &args, Method *method, DataType *dtype)
{
    *method = flagValue(args, "method", "dual", kMethods);
    *dtype = flagValue(args, "dtype", "fp16", kDataTypes);
    if (*method != Method::Hybrid || !dataTypeIsInteger(*dtype))
        return true;
    std::fprintf(stderr,
                 "error: the hybrid composer has no integer "
                 "datapath (per-class quantization scales would "
                 "disagree); use --method dual\n");
    return false;
}

/** The synthetic GEMM of `gemm M N K` and `backends M N K`. */
KernelRequest
syntheticGemm(const CliArgs &args)
{
    const double sa = args.flagD("a-sparsity", 0.0);
    const double sb = args.flagD("b-sparsity", 0.0);
    const double cluster = args.flagD("cluster", 1.0);
    return KernelRequest::gemm(dimArg(args, 1), dimArg(args, 2),
                               dimArg(args, 3), sa, sb)
        .withClusters(sa > 0 ? cluster : 1.0, sb > 0 ? cluster : 1.0)
        .withSeed(args.flagU64("seed", 1))
        .withHybridThreshold(args.flagD("hybrid-threshold", -1.0));
}

void
printReport(const KernelReport &report, const GpuConfig &cfg,
            DataType dtype = DataType::Fp16)
{
    const KernelStats &stats = report.stats;
    std::printf("backend          : %s (%s)\n", report.backend.c_str(),
                nameOf(kMethods, report.method));
    std::printf("kernel           : %s\n", stats.name.c_str());
    std::printf("time             : %.2f us (%s bound)\n",
                stats.timeUs(),
                stats.bound == Bound::Compute ? "compute" : "memory");
    std::printf("compute / memory : %.2f / %.2f us\n", stats.compute_us,
                stats.memory_us);
    std::printf("DRAM traffic     : %.2f MB\n", stats.dram_bytes / 1e6);
    if (stats.mix.ohmma_issued + stats.mix.ohmma_skipped > 0) {
        std::printf("OHMMA            : %lld issued, %lld skipped\n",
                    static_cast<long long>(stats.mix.ohmma_issued),
                    static_cast<long long>(stats.mix.ohmma_skipped));
        std::printf("warp tiles       : %lld run, %lld skipped\n",
                    static_cast<long long>(stats.warp_tiles),
                    static_cast<long long>(stats.warp_tiles_skipped));
    }
    EnergyReport energy =
        estimateEnergy(stats, EnergyParams::v100_12nm(), cfg, dtype);
    std::printf("energy           : %.1f uJ\n", energy.totalUj());
}

int
runGemm(const CliArgs &args, Session &session)
{
    Method method;
    DataType dtype;
    if (!parseMethodAndDtype(args, &method, &dtype))
        return 2;
    KernelRequest req =
        syntheticGemm(args).withMethod(method).withDataType(dtype);

    KernelReport report = session.run(req);
    std::printf("GEMM %lld x %lld x %lld, A sparsity %.3f, B sparsity "
                "%.3f (%s, %s)\n",
                static_cast<long long>(req.m),
                static_cast<long long>(req.n),
                static_cast<long long>(req.k),
                req.a.synthetic()->sparsity,
                req.b.synthetic()->sparsity, tokenOf(kMethods, req.method),
                tokenOf(kDataTypes, req.dataType()));
    printReport(report, session.config(), req.dataType());
    return 0;
}

/** `spmm M N K` (synthetic) and `spmm FILE.mtx [N]`. */
int
runSpmm(const CliArgs &args, Session &session)
{
    Method method;
    DataType dtype;
    if (!parseMethodAndDtype(args, &method, &dtype))
        return 2;
    const SpmmFormat format =
        flagValue(args, "format", "auto", kSpmmFormats);
    const uint64_t seed = args.flagU64("seed", 1);

    Matrix<float> a_mtx, b_dense;
    KernelRequest req;
    if (args.positional.size() == 4) {
        const int64_t m = dimArg(args, 1), n = dimArg(args, 2),
                      k = dimArg(args, 3);
        const double sa = args.flagD("a-sparsity", 0.99);
        req = KernelRequest::spmm(m, n, k, sa)
                  .withClusters(args.flagD("cluster", 1.0), 1.0);
        std::printf("SpMM %lld x %lld x %lld, A sparsity %.4f "
                    "(synthetic)\n",
                    static_cast<long long>(m), static_cast<long long>(n),
                    static_cast<long long>(k), sa);
    } else {
        const std::string &path = args.positional[1];
        std::string error;
        if (!loadMatrixMarket(path, &a_mtx, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        const int64_t n = args.positional.size() == 3 ? dimArg(args, 2)
                                                      : 32;
        Rng rng(seed);
        b_dense = randomSparseMatrix(a_mtx.cols(),
                                     static_cast<int>(n), 0.0, rng);
        req = KernelRequest::spmm(a_mtx, b_dense);
        std::printf("SpMM %s: %d x %d, %d non-zeros (density %.4f%%)"
                    ", N = %lld\n",
                    path.c_str(), a_mtx.rows(), a_mtx.cols(),
                    a_mtx.nnz(),
                    100.0 * (1.0 - a_mtx.sparsity()),
                    static_cast<long long>(n));
    }
    req = req.withMethod(method)
              .withDataType(dtype)
              .withSpmmFormat(format)
              .withSeed(seed)
              .withHybridThreshold(
                  args.flagD("hybrid-threshold", -1.0));

    KernelReport report = session.run(req);
    printReport(report, session.config(), req.dataType());
    return 0;
}

int
runConv(const CliArgs &args, Session &session)
{
    ConvShape shape;
    shape.batch = args.flagI("batch", 1);
    shape.in_c = args.flagI("in-c", 0);
    shape.in_h = shape.in_w = args.flagI("hw", 0);
    shape.out_c = args.flagI("out-c", 0);
    shape.kernel = args.flagI("kernel", 3);
    shape.stride = args.flagI("stride", 1);
    shape.pad = args.flagI("pad", 1);
    if (shape.outH() <= 0) {
        std::fprintf(stderr,
                     "error: convolution output collapses to zero\n");
        return 2;
    }

    const Method method = flagValue(args, "method", "dual", kMethods);
    const bool explicit_lowering = args.hasFlag("explicit");
    if (explicit_lowering && method == Method::DualSparse) {
        std::fprintf(stderr, "error: the dual-side design has no "
                             "explicit-im2col variant\n");
        return 2;
    }

    KernelRequest req = KernelRequest::conv(
        shape, args.flagD("wsp", 0.0), args.flagD("asp", 0.0));
    req.method = method;
    req.lowering = explicit_lowering ? Lowering::Explicit
                                     : Lowering::Implicit;
    req.seed = args.flagU64("seed", 1);
    req.withClusters(args.flagD("act-cluster", 2.0),
                     args.flagD("cluster", 4.0));

    KernelReport report = session.run(req);
    std::printf("CONV %s (%s)\n", shape.str().c_str(),
                nameOf(kMethods, report.method));
    printReport(report, session.config());
    return 0;
}

int
runModel(const CliArgs &args, Session &session)
{
    const DnnModel model = parseToken(kZoo, args.positional[1]).value()();
    const ModelMethod method =
        flagValue(args, "method", "dual", kModelMethodChoices);
    const uint64_t seed = args.flagU64("seed", 1);
    const DataType dtype = flagValue(args, "dtype", "fp16", kDataTypes);
    ModelRunner runner(session);
    ModelRunResult result = runner.run(model, method, seed, dtype);
    // The comparison baseline runs at the same datatype, so the
    // speedup column isolates sparsity, not quantization.
    ModelRunResult dense =
        runner.run(model, ModelMethod::DenseImplicit, seed, dtype);

    const bool show_backend = method == ModelMethod::Auto;
    TextTable table;
    if (show_backend)
        table.setHeader(
            {"layer", "time (us)", "vs dense implicit", "backend"});
    else
        table.setHeader({"layer", "time (us)", "vs dense implicit"});
    for (size_t i = 0; i < result.layers.size(); ++i) {
        std::vector<std::string> row = {
            result.layers[i].name,
            fmtDouble(result.layers[i].stats.timeUs(), 2),
            fmtSpeedup(dense.layers[i].stats.timeUs() /
                       result.layers[i].stats.timeUs())};
        if (show_backend)
            row.push_back(result.layers[i].backend);
        table.addRow(row);
    }
    std::vector<std::string> total_row = {
        "FULL MODEL", fmtDouble(result.totalTimeUs(), 2),
        fmtSpeedup(dense.totalTimeUs() / result.totalTimeUs())};
    if (show_backend)
        total_row.push_back("");
    table.addRow(total_row);
    std::printf("%s under %s (%s):\n", model.name.c_str(),
                legendName(method), tokenOf(kDataTypes, dtype));
    table.print();
    return 0;
}

/** Parse the comma-separated --devices list into GpuConfigs. */
bool
parseDevicesArg(const std::string &list,
                std::vector<GpuConfig> *configs,
                std::vector<std::string> *names)
{
    configs->clear();
    names->clear();
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string token = list.substr(start, comma - start);
        const auto make = parseToken(kDeviceModels, token);
        if (!make) {
            std::fprintf(stderr,
                         "error: unknown device '%s' (valid: %s)\n",
                         token.c_str(),
                         join(tokensOf(kDeviceModels), ", ").c_str());
            return false;
        }
        configs->push_back((*make)());
        names->push_back(token);
        start = comma + 1;
    }
    return true;
}

/** The workload of cluster and serve: one model's layer batch under
 *  --method and --seed, or serve's resnet18 + bert "mix". */
struct ModelPool
{
    std::string model; ///< display name ("mix" for the mix)
    ModelMethod method;
    uint64_t seed;
    std::vector<KernelRequest> requests;
};

ModelPool
parseModelPool(const CliArgs &args)
{
    const std::string &name = args.positional[1];
    const std::vector<DnnModel> models =
        name == "mix"
            ? std::vector<DnnModel>{makeResnet18(), makeBertBase()}
            : std::vector<DnnModel>{parseToken(kZoo, name).value()()};
    ModelPool pool{models.size() == 1 ? models[0].name : name,
                   flagValue(args, "method", "dual", kModelMethodChoices),
                   args.flagU64("seed", 1),
                   {}};
    for (const DnnModel &model : models) {
        const std::vector<KernelRequest> batch =
            ModelRunner::layerRequests(model, pool.method, pool.seed);
        pool.requests.insert(pool.requests.end(), batch.begin(),
                             batch.end());
    }
    return pool;
}

int
runCluster(const CliArgs &args)
{
    const ModelPool pool = parseModelPool(args);
    ClusterOptions opts;
    std::vector<std::string> device_names;
    if (!parseDevicesArg(args.flag("devices", "v100,v100"),
                         &opts.devices, &device_names))
        return 2;
    opts.policy = flagValue(args, "policy", "cost", kPlacementPolicies);
    const int replicate = args.flagI("replicate", 1);

    Cluster cluster(opts);
    // The serving shape: the same model batch arriving over and over
    // (same seed per replica, so encodings and estimates dedup in
    // the shared cache).
    std::vector<KernelRequest> requests;
    for (int rep = 0; rep < replicate; ++rep)
        requests.insert(requests.end(), pool.requests.begin(),
                        pool.requests.end());
    std::vector<KernelReport> reports = cluster.runBatch(requests);

    std::printf("%s x %d under %s on %zu devices, policy %s:\n",
                pool.model.c_str(), replicate,
                legendName(pool.method), cluster.numDevices(),
                tokenOf(kPlacementPolicies, opts.policy));

    const size_t layers = pool.requests.size();
    TextTable per_layer;
    per_layer.setHeader({"layer", "time (us)", "device", "backend"});
    for (size_t i = 0; i < layers; ++i)
        per_layer.addRow({reports[i].tag,
                          fmtDouble(reports[i].stats.timeUs(), 2),
                          std::to_string(reports[i].device),
                          reports[i].backend});
    per_layer.print();

    // Per device: requests placed, the plan-stage estimates cost
    // placement summed there (in index order, as it did), and the
    // simulated time they took.
    const size_t n = cluster.numDevices();
    std::vector<int64_t> placed(n, 0);
    std::vector<double> est_busy_us(n, 0.0), device_us(n, 0.0);
    double total_us = 0.0;
    for (size_t i = 0; i < reports.size(); ++i) {
        const size_t d = static_cast<size_t>(reports[i].device);
        ++placed[d];
        if (opts.policy == PlacementPolicy::CostModel)
            est_busy_us[d] += cluster.estimateOn(d, requests[i]);
        device_us[d] += reports[i].stats.timeUs();
        total_us += reports[i].stats.timeUs();
    }
    std::printf("\nper-device load:\n");
    TextTable per_device;
    per_device.setHeader({"device", "config", "placed",
                          "est busy (us)", "sim time (us)"});
    double makespan_us = 0.0;
    for (size_t d = 0; d < n; ++d) {
        per_device.addRow(
            {std::to_string(d), device_names[d],
             std::to_string(placed[d]), fmtDouble(est_busy_us[d], 1),
             fmtDouble(device_us[d], 1)});
        makespan_us = std::max(makespan_us, device_us[d]);
    }
    per_device.print();
    std::printf("\nrequests          : %zu\n", reports.size());
    std::printf("sum of times      : %.1f us\n", total_us);
    std::printf("makespan (sim)    : %.1f us\n", makespan_us);
    std::printf("cluster speedup   : %.2fx vs serial same-placement\n",
                total_us / makespan_us);
    std::printf("throughput (sim)  : %.1f req/ms\n",
                reports.size() / (makespan_us / 1e3));
    return 0;
}

int
runServe(const CliArgs &args)
{
    ModelPool pool = parseModelPool(args);
    ServingOptions opts;
    std::vector<std::string> device_names;
    if (!parseDevicesArg(args.flag("devices", "v100,v100"),
                         &opts.devices, &device_names))
        return 2;

    opts.policy = flagValue(args, "policy", "deadline", kServePolicies);
    opts.admission =
        flagValue(args, "admission", "reject", kAdmissionPolicies);
    opts.arrivals.pattern =
        flagValue(args, "pattern", "poisson", kTrafficPatterns);

    opts.arrivals.rate_rpms = args.flagD("rate", 400.0);
    opts.arrivals.duration_ms = args.flagD("duration", 2.0);
    opts.arrivals.seed = pool.seed;
    opts.queue_depth = static_cast<size_t>(args.flagI("depth", 256));
    opts.microbatch = static_cast<size_t>(args.flagI("microbatch", 4));

    // Fault injection and recovery policies. Malformed specs are a
    // usage error (exit 2) with the parser's own message — the same
    // contract as every other flag.
    const std::string fault_spec = args.flag("faults", "");
    if (!fault_spec.empty()) {
        std::string error;
        if (!FaultSpec::parse(fault_spec, &opts.faults, &error)) {
            std::fprintf(stderr, "serve: bad --faults spec: %s\n",
                         error.c_str());
            return 2;
        }
    }
    opts.fault_seed = args.flagU64("fault-seed", 0);
    opts.retry = args.hasFlag("retry");
    opts.hedge = args.hasFlag("hedge");
    opts.failover = !args.hasFlag("no-failover");
    opts.degrade = !args.hasFlag("no-degrade");
    opts.retry_budget = args.flagI("retry-budget", 3);
    opts.retry_backoff_us = args.flagD("backoff", 10.0);

    ServingEngine engine(opts, std::move(pool.requests));
    const double capacity = engine.estimatedCapacityRpms();
    ServingResult result = engine.run();
    const ServingStats &stats = result.stats;

    std::printf("serve %s on %zu devices, policy %s, admission %s, "
                "%s @ %.0f req/ms for %.1f ms (seed %llu)\n",
                args.positional[1].c_str(), engine.cluster().numDevices(),
                tokenOf(kServePolicies, opts.policy),
                tokenOf(kAdmissionPolicies, opts.admission),
                tokenOf(kTrafficPatterns, opts.arrivals.pattern),
                opts.arrivals.rate_rpms, opts.arrivals.duration_ms,
                static_cast<unsigned long long>(pool.seed));
    std::printf("estimated capacity: %.0f req/ms (offered load "
                "%.2fx)\n\n",
                capacity, opts.arrivals.rate_rpms / capacity);

    TextTable per_class;
    per_class.setHeader({"class", "offered", "done", "missed",
                         "rejected", "shed", "p50 (us)", "p99 (us)"});
    for (int c = 0; c < kNumDeadlineClasses; ++c) {
        const ClassStats &cls = stats.per_class[c];
        per_class.addRow(
            {nameOf(kDeadlineClasses, static_cast<DeadlineClass>(c)),
             std::to_string(cls.offered),
             std::to_string(cls.completed),
             std::to_string(cls.deadline_misses),
             std::to_string(cls.rejected), std::to_string(cls.shed),
             fmtDouble(cls.latency.p50_us, 2),
             fmtDouble(cls.latency.p99_us, 2)});
    }
    per_class.print();

    std::printf("\nper-device placement:\n");
    TextTable per_device;
    per_device.setHeader({"device", "config", "placed", "completed"});
    for (size_t d = 0; d < engine.cluster().numDevices(); ++d)
        per_device.addRow({std::to_string(d), device_names[d],
                           std::to_string(stats.placed_per_device[d]),
                           std::to_string(
                               stats.completed_per_device[d])});
    per_device.print();

    std::printf("\noffered / admitted : %lld / %lld\n",
                static_cast<long long>(stats.offered),
                static_cast<long long>(stats.admitted));
    std::printf("completed          : %lld (%lld rejected, %lld "
                "shed, %lld dropped, %lld lost)\n",
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.rejected),
                static_cast<long long>(stats.shed),
                static_cast<long long>(stats.dropped),
                static_cast<long long>(stats.faults.lost));
    std::printf("latency p50/p95/p99: %.2f / %.2f / %.2f us\n",
                stats.latency.p50_us, stats.latency.p95_us,
                stats.latency.p99_us);
    std::printf("deadline miss rate : %.3f\n",
                stats.deadline_miss_rate);
    std::printf("SLO attainment     : %.3f\n", stats.slo_attainment);
    std::printf("throughput         : %.1f req/ms\n",
                stats.throughput_rpms);
    std::printf("goodput            : %.1f req/ms\n",
                stats.goodput_rpms);
    std::printf("steals / batches   : %lld / %lld (%lld requests "
                "batched)\n",
                static_cast<long long>(stats.steals),
                static_cast<long long>(stats.microbatches),
                static_cast<long long>(stats.microbatched));

    if (!opts.faults.empty()) {
        const FaultRecoveryStats &fr = stats.faults;
        std::printf("\nfault/recovery scoreboard:\n");
        std::printf("crashes / slowdowns: %lld / %lld\n",
                    static_cast<long long>(fr.crashes),
                    static_cast<long long>(fr.slowdowns));
        std::printf("transient failures : %lld\n",
                    static_cast<long long>(fr.transient_failures));
        std::printf("retries            : %lld (%lld exhausted)\n",
                    static_cast<long long>(fr.retries),
                    static_cast<long long>(fr.retries_exhausted));
        std::printf("failovers          : %lld\n",
                    static_cast<long long>(fr.failovers));
        std::printf("hedges             : %lld (%lld secondary wins, "
                    "%lld cancelled)\n",
                    static_cast<long long>(fr.hedges),
                    static_cast<long long>(fr.hedge_wins),
                    static_cast<long long>(fr.hedges_cancelled));
        std::printf("requests lost      : %lld\n",
                    static_cast<long long>(fr.lost));
        std::printf("availability       : %.4f\n", fr.availability);
    }
    return 0;
}

/**
 * `backends --mtx <file>`: the real-matrix probe. Prints the strip
 * density histogram and the narrow-vs-32-wide structure view the
 * SpMM format selection runs on, then each format's cost-model
 * estimate and the dual plan's choice.
 */
int
runProbeMtx(const CliArgs &args, Session &session)
{
    const std::string path = args.flag("mtx", "");
    const int64_t n = args.flagI("n", 32);
    Matrix<float> a;
    std::string error;
    if (!loadMatrixMarket(path, &a, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    const SparsityProfile a8 = SparsityProfile::fromMatrixAWord(a, 8);
    const SparsityProfile a32 = aggregateSpmmProfile(a8);
    const int64_t k = a8.k();
    std::printf("%s: %d x %d, %d non-zeros (density %.4f%%)\n",
                path.c_str(), a.rows(), a.cols(), a.nnz(),
                100.0 * (1.0 - a.sparsity()));

    // Strip (8-row group) density histogram, log-scale buckets: at
    // corpus sparsities a linear histogram collapses into one bin.
    const double edges[] = {0.0, 0.001, 0.005, 0.01, 0.05, 0.25, 1.0};
    const char *labels[] = {"0%",       "(0, 0.1%]", "(0.1, 0.5%]",
                            "(0.5, 1%]", "(1, 5%]",   "(5, 25%]",
                            "> 25%"};
    int hist[7] = {0};
    for (int g = 0; g < a8.groups(); ++g) {
        const double d = a8.groupDensity(g);
        int bin = 0;
        if (d > 0.0) {
            bin = 6;
            for (int e = 1; e < 6; ++e)
                if (d <= edges[e]) {
                    bin = e;
                    break;
                }
        }
        ++hist[bin];
    }
    std::printf("\nstrip density histogram (%d strips of 8 rows):\n",
                a8.groups());
    for (int b = 0; b < 7; ++b)
        if (hist[b])
            std::printf("  %-12s: %6d strip%s\n", labels[b], hist[b],
                        hist[b] == 1 ? "" : "s");

    // Narrow structure: 8x1 vectors; wide structure: 32x32 tiles.
    int64_t vectors = 0, vector_nnz = 0;
    for (int g = 0; g < a8.groups(); ++g)
        for (int64_t kk = 0; kk < k; ++kk)
            if (a8.count(g, kk) > 0) {
                ++vectors;
                vector_nnz += a8.count(g, kk);
            }
    const int64_t total_vectors =
        static_cast<int64_t>(a8.groups()) * k;
    const int64_t tile_cols = (k + 31) / 32;
    int64_t tiles = 0, tile_nnz = 0;
    for (int g = 0; g < a32.groups(); ++g) {
        for (int64_t tj = 0; tj < tile_cols; ++tj) {
            int64_t nnz = 0;
            const int64_t k1 = std::min<int64_t>(k, (tj + 1) * 32);
            for (int64_t kk = tj * 32; kk < k1; ++kk)
                nnz += a32.count(g, kk);
            if (nnz > 0) {
                ++tiles;
                tile_nnz += nnz;
            }
        }
    }
    const int64_t total_tiles = a32.groups() * tile_cols;
    std::printf("\nformat structure:\n");
    std::printf("  narrow 8x1 vectors : %lld / %lld non-empty "
                "(%.2f%%), avg fill %.2f / 8\n",
                static_cast<long long>(vectors),
                static_cast<long long>(total_vectors),
                100.0 * vectors / total_vectors,
                vectors ? static_cast<double>(vector_nnz) / vectors
                        : 0.0);
    std::printf("  wide 32x32 tiles   : %lld / %lld non-empty "
                "(%.2f%%), avg fill %.1f / 1024\n",
                static_cast<long long>(tiles),
                static_cast<long long>(total_tiles),
                100.0 * tiles / total_tiles,
                tiles ? static_cast<double>(tile_nnz) / tiles : 0.0);

    SpmmDevice device(session.config());
    const KernelStats tn = device.timeNarrowFromProfile(a8, n);
    const KernelStats tw = device.timeWideFromProfile(a32, n);
    std::printf("\ncost model at N = %lld:\n",
                static_cast<long long>(n));
    std::printf("  narrow : %8.2f us (%s bound)\n", tn.timeUs(),
                tn.bound == Bound::Compute ? "compute" : "memory");
    std::printf("  wide   : %8.2f us (%s bound)\n", tw.timeUs(),
                tw.bound == Bound::Compute ? "compute" : "memory");
    std::printf("  chosen : %s (%.2fx vs the other)\n",
                tn.timeUs() <= tw.timeUs() ? "narrow" : "wide",
                std::max(tn.timeUs(), tw.timeUs()) /
                    std::min(tn.timeUs(), tw.timeUs()));
    return 0;
}

/**
 * `backends` describes the static registry; `backends M N K` also
 * reports each backend's applicability and cost-model estimate for
 * that request, plus the hybrid composer's partition preview.
 */
int
runBackends(const CliArgs &args, Session &session)
{
    const bool probe_request = args.positional.size() == 4;
    const KernelRequest gemm_probe =
        probe_request ? syntheticGemm(args)
                      : KernelRequest::gemm(64, 64, 64);
    if (probe_request)
        std::printf("request: GEMM %lld x %lld x %lld, A sparsity "
                    "%.3f, B sparsity %.3f\n",
                    static_cast<long long>(gemm_probe.m),
                    static_cast<long long>(gemm_probe.n),
                    static_cast<long long>(gemm_probe.k),
                    gemm_probe.a.synthetic()->sparsity,
                    gemm_probe.b.synthetic()->sparsity);

    KernelRequest conv_probe;
    conv_probe.kind = KernelRequest::Kind::Conv;
    conv_probe.shape.in_c = 8;
    conv_probe.shape.in_h = conv_probe.shape.in_w = 8;
    conv_probe.shape.out_c = 8;

    TextTable table;
    table.setHeader({"backend", "method", "token", "gemm", "conv",
                     "exact gemm", "est (us)"});
    for (const auto &backend : session.registry().backends()) {
        const bool supports = backend->supports(gemm_probe);
        std::string estimate = "-";
        if (supports) {
            KernelRequest routed = gemm_probe;
            routed.method = backend->method();
            estimate = fmtDouble(
                session.plan(routed)->estimatedTimeUs(), 2);
        }
        table.addRow({backend->name(), nameOf(kMethods, backend->method()),
                      tokenOf(kMethods, backend->method()),
                      supports ? "yes" : "no",
                      backend->supports(conv_probe) ? "yes" : "no",
                      backend->exact(gemm_probe) ? "yes" : "no",
                      estimate});
    }
    table.print();

    if (probe_request) {
        KernelRequest hybrid_probe = gemm_probe;
        hybrid_probe.method = Method::Hybrid;
        PlanContext ctx;
        ctx.cfg = &session.config();
        ctx.cache = &session.encodingCache();
        ctx.registry = &session.registry();
        const HybridSplit split = planHybridSplit(hybrid_probe, ctx);
        std::printf("\nhybrid partition (threshold %s):\n",
                    split.threshold < 0.0
                        ? "none"
                        : fmtDouble(split.threshold, 3).c_str());
        for (const HybridClass &cls : split.classes)
            std::printf("  %-8s : %zu tile row group%s, est %.2f "
                        "us\n",
                        tokenOf(kMethods, cls.method), cls.groups.size(),
                        cls.groups.size() == 1 ? "" : "s",
                        cls.estimated_us);
        std::printf("  total est : %.2f us\n",
                    split.total_estimated_us);
    }
    return 0;
}

int
runOverhead(const CliArgs &args, Session &session)
{
    OverheadReport report = estimateOverhead(
        session.config(), flagValue(args, "dtype", "fp16", kDataTypes));
    TextTable table;
    table.setHeader({"module", "area (mm^2)", "power (W)"});
    for (const auto &component : report.components)
        table.addRow({component.name, fmtDouble(component.area_mm2, 3),
                      fmtDouble(component.power_w, 2)});
    table.addRow({"total", fmtDouble(report.totalAreaMm2(), 3),
                  fmtDouble(report.totalPowerW(), 2)});
    table.print();
    return 0;
}

/** One command form: a row of the command table. */
struct Command
{
    const char *name;
    std::vector<ArgSpec> positionals = {};
    /** Every flag of the form but --a100 (see flagsOf). */
    std::vector<ArgSpec> flags = {};
    /** A single-device form: one Session, V100 or --a100. */
    int (*run)(const CliArgs &, Session &) = nullptr;
    /** A multi-device form: takes --devices, rejects --a100. */
    int (*run_devices)(const CliArgs &) = nullptr;
};

// A form is chosen by name, required flags and positional count, in
// table order (so `backends --mtx` is tried before bare `backends`).
const std::vector<Command> kCommands = {
    {.name = "gemm",
     .positionals = kMnk,
     .flags = {kASparsity, kBSparsity, kCluster, kSeed, kHybridThreshold,
               kDtype,
               {"method", ArgKind::Text, ArgRange::Any, tokensOf(kMethods)}},
     .run = runGemm},
    {.name = "spmm",
     .positionals = kMnk,
     .flags = {kASparsity, kCluster, kSeed, kHybridThreshold, kFormat,
               kDtype, kSpmmMethod},
     .run = runSpmm},
    {.name = "spmm",
     .positionals = {{"FILE.mtx", ArgKind::Text, ArgRange::Any, {}, true},
                     {"N", ArgKind::Int, ArgRange::Positive}},
     .flags = {kSeed, kHybridThreshold, kFormat, kDtype, kSpmmMethod},
     .run = runSpmm},
    {.name = "conv",
     .flags = {{"in-c", ArgKind::Int, ArgRange::Positive, {}, true},
               {"hw", ArgKind::Int, ArgRange::Positive, {}, true},
               {"out-c", ArgKind::Int, ArgRange::Positive, {}, true},
               {"kernel", ArgKind::Int, ArgRange::Positive},
               {"stride", ArgKind::Int, ArgRange::Positive},
               {"pad", ArgKind::Int, ArgRange::NonNegative},
               {"wsp", ArgKind::Number, ArgRange::Fraction},
               {"asp", ArgKind::Number, ArgRange::Fraction},
               {"batch", ArgKind::Int, ArgRange::Positive},
               kSeed,
               {"cluster", ArgKind::Number, ArgRange::AtLeastOne},
               {"act-cluster", ArgKind::Number, ArgRange::AtLeastOne},
               {"explicit", ArgKind::Presence},
               {"method", ArgKind::Text, ArgRange::Any,
                {"auto", "dual", "dense", "zhu"}}},
     .run = runConv},
    {.name = "model",
     .positionals = {kModel},
     .flags = {kModelMethod, kSeed, kDtype},
     .run = runModel},
    {.name = "cluster",
     .positionals = {kModel},
     .flags = {kDevices,
               {"policy", ArgKind::Text, ArgRange::Any,
                tokensOf(kPlacementPolicies)},
               kModelMethod,
               {"replicate", ArgKind::Int, ArgRange::Positive},
               kSeed},
     .run_devices = runCluster},
    {.name = "serve",
     .positionals = {kServePool},
     .flags = {kDevices,
               {"policy", ArgKind::Text, ArgRange::Any,
                tokensOf(kServePolicies)},
               {"admission", ArgKind::Text, ArgRange::Any,
                tokensOf(kAdmissionPolicies)},
               {"pattern", ArgKind::Text, ArgRange::Any,
                tokensOf(kTrafficPatterns)},
               {"rate", ArgKind::Number, ArgRange::Positive},
               {"duration", ArgKind::Number, ArgRange::Positive},
               {"depth", ArgKind::Int, ArgRange::Positive},
               {"microbatch", ArgKind::Int, ArgRange::Positive},
               kModelMethod,
               kSeed,
               {"faults"},
               {"fault-seed", ArgKind::U64},
               {"retry", ArgKind::Presence},
               {"retry-budget", ArgKind::Int, ArgRange::Positive},
               {"backoff", ArgKind::Number, ArgRange::Positive},
               {"hedge", ArgKind::Presence},
               {"no-failover", ArgKind::Presence},
               {"no-degrade", ArgKind::Presence}},
     .run_devices = runServe},
    {.name = "backends",
     .flags = {{"mtx", ArgKind::Text, ArgRange::Any, {}, true},
               {"n", ArgKind::Int, ArgRange::Positive}},
     .run = runProbeMtx},
    {.name = "backends", .run = runBackends},
    {.name = "backends",
     .positionals = kMnk,
     .flags = {kASparsity, kBSparsity, kCluster, kSeed,
               kHybridThreshold},
     .run = runBackends},
    {.name = "overhead", .flags = {kDtype}, .run = runOverhead},
};

std::vector<ArgSpec>
flagsOf(const Command &command)
{
    std::vector<ArgSpec> flags = command.flags;
    if (!command.run_devices)
        flags.push_back(kA100);
    return flags;
}

/** A form's usage line, wrapped at 72 columns. */
std::string
usageOf(const Command &command)
{
    std::vector<std::string> words = {std::string("dstc_sim ") +
                                      command.name};
    for (const ArgSpec &spec : command.positionals) {
        const std::string word =
            spec.choices.empty() ? spec.name : join(spec.choices, "|");
        words.push_back(spec.required ? word : "[" + word + "]");
    }
    for (const ArgSpec &spec : flagsOf(command)) {
        std::string word = "--" + spec.name;
        if (!spec.choices.empty()) {
            word += " " + join(spec.choices, "|");
        } else if (spec.kind == ArgKind::Number) {
            word += " X";
        } else if (spec.kind == ArgKind::Int ||
                   spec.kind == ArgKind::U64) {
            word += " N";
        } else if (spec.kind == ArgKind::Text) {
            word += " ";
            for (char c : spec.name)
                word += static_cast<char>(std::toupper(c));
        }
        words.push_back(spec.required ? word : "[" + word + "]");
    }
    std::string text, line;
    for (const std::string &word : words) {
        if (!line.empty() && line.size() + 1 + word.size() > 72) {
            text += line + "\n";
            line = "        ";
        }
        line += (line.empty() ? "" : " ") + word;
    }
    return text + line + "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Presence-only flags never consume a following token (else
    // `--explicit bogus` would silently eat the stray argument and
    // `--a100 model ...` would eat the command).
    std::set<std::string> presence;
    for (const Command &command : kCommands)
        for (const ArgSpec &spec : flagsOf(command))
            if (spec.kind == ArgKind::Presence)
                presence.insert(spec.name);
    const CliArgs args = parseCliArgs(argc, argv, presence);

    if (args.positional.empty()) {
        for (const Command &command : kCommands)
            std::fputs(usageOf(command).c_str(), stderr);
        std::fprintf(stderr,
                     "\n--devices is a comma-separated list of %s; "
                     "--faults is a\n';'-separated event list (see "
                     "src/serve/faults.h).\n",
                     join(tokensOf(kDeviceModels), ", ").c_str());
        return 2;
    }
    const std::string &name = args.positional[0];
    const Command *chosen = nullptr;
    std::string forms;
    std::vector<std::string> names;
    for (const Command &command : kCommands) {
        if (names.empty() || names.back() != command.name)
            names.push_back(command.name);
        if (command.name != name)
            continue;
        forms += usageOf(command);
        if (!chosen && args.matchesForm(command.positionals,
                                        command.flags))
            chosen = &command;
    }
    if (forms.empty()) {
        std::fprintf(stderr,
                     "error: unknown command '%s' (valid: %s)\n",
                     name.c_str(), join(names, ", ").c_str());
        return 2;
    }
    if (!chosen) {
        std::fprintf(stderr, "usage:\n%s", forms.c_str());
        return 2;
    }
    if (!args.validateFlags(name.c_str(), flagsOf(*chosen),
                            chosen->positionals))
        return 2;
    if (chosen->run_devices)
        return chosen->run_devices(args);
    Session session(args.hasFlag("a100") ? GpuConfig::a100Like()
                                         : GpuConfig::v100());
    return chosen->run(args, session);
}
