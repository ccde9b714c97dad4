/**
 * @file
 * dstc_sim — command-line front end to the simulator, for exploring
 * operating points without writing code. All execution goes through
 * the Session / KernelRegistry plan-execute API.
 *
 * Usage:
 *   dstc_sim gemm M N K [--a-sparsity S] [--b-sparsity S]
 *            [--cluster C] [--seed N] [--hybrid-threshold T]
 *            [--dtype fp32|fp16|bf16|int8|int4]
 *            [--method auto|dual|dense|zhu|ampere|cusparse|hybrid]
 *   dstc_sim spmm <file.mtx> [N] | spmm M N K [--a-sparsity S]
 *            [--format auto|narrow|wide] [--dtype ...] [--seed N]
 *            [--method auto|dual|dense|cusparse|hybrid]
 *   dstc_sim conv --in-c C --hw H --out-c N [--kernel K] [--stride S]
 *            [--pad P] [--wsp S] [--asp S] [--batch B] [--seed N]
 *            [--cluster C] [--act-cluster C] [--explicit]
 *            [--method auto|dual|dense|zhu]
 *   dstc_sim model vgg16|resnet18|maskrcnn|bert|rnn
 *            [--method auto|dual|dense|single] [--seed N] [--batched]
 *            [--dtype fp32|fp16|bf16|int8|int4]
 *   dstc_sim cluster vgg16|resnet18|maskrcnn|bert|rnn
 *            [--devices v100,a100,future] [--policy cost|rr|shard]
 *            [--method auto|dual|dense|single] [--replicate N]
 *            [--seed N]
 *   dstc_sim serve vgg16|resnet18|maskrcnn|bert|rnn|mix
 *            [--devices v100,a100,future]
 *            [--policy deadline|cost|rr] [--admission reject|shed]
 *            [--pattern poisson|bursty] [--rate RPMS]
 *            [--duration MS] [--depth N] [--microbatch N]
 *            [--method auto|dual|dense|single] [--seed N]
 *            [--faults SPEC] [--fault-seed N] [--retry]
 *            [--retry-budget N] [--backoff US] [--hedge]
 *            [--no-failover] [--no-degrade]
 *
 * Fault specs are ';'-separated events (see serve/faults.h):
 *   crash@<t_us>:d<idx>             crash-stop a device at t
 *   slow@<t_us>+<dur_us>x<f>:d<idx> slowdown window, factor f >= 1
 *   transient:p<prob>               per-attempt failure probability
 *   randcrash:<n>                   n seeded random crashes
 *   dstc_sim backends [M N K] [--a-sparsity S] [--b-sparsity S]
 *            [--cluster C] [--seed N] [--hybrid-threshold T]
 *   dstc_sim backends --mtx <file.mtx> [--n N]
 *   dstc_sim overhead [--dtype fp32|fp16|bf16|int8|int4]
 *
 * All commands run on the V100 machine model; pass --a100 to switch
 * (the cluster command instead takes its comma-separated --devices
 * list). Unknown commands, flags or flag values are rejected with an
 * error (exit code 2) instead of silently falling back to defaults.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
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

/** Flags valid for every command (the machine-model switch). */
const std::set<std::string> kGlobalFlags = {"a100"};

/** Parse --method against the subset a command supports. */
bool
parseMethodFlag(const CliArgs &args, const std::string &fallback,
                const std::set<std::string> &allowed, Method *out)
{
    const std::string token = args.flag("method", fallback);
    Method method;
    if (!parseMethod(token, &method) || !allowed.count(token)) {
        std::string valid;
        for (const auto &name : allowed)
            valid += (valid.empty() ? "" : "|") + name;
        std::fprintf(stderr,
                     "error: unknown method '%s' (valid: %s)\n",
                     token.c_str(), valid.c_str());
        return false;
    }
    *out = method;
    return true;
}

/** Parse the --dtype flag (defaulting to the FP16 datapath). */
bool
parseDataTypeFlag(const CliArgs &args, DataType *out)
{
    const std::string token = args.flag("dtype", "fp16");
    if (!parseDataType(token, out)) {
        std::fprintf(stderr,
                     "error: unknown dtype '%s' (valid: "
                     "fp32|fp16|bf16|int8|int4)\n",
                     token.c_str());
        return false;
    }
    return true;
}

void
printReport(const KernelReport &report, const GpuConfig &cfg,
            DataType dtype = DataType::Fp16)
{
    const KernelStats &stats = report.stats;
    std::printf("backend          : %s (%s)\n", report.backend.c_str(),
                methodName(report.method));
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

/** Parse one positive-integer positional ("M", "N", ...). */
bool
parseDimArg(const std::string &token, int64_t *out)
{
    char *end = nullptr;
    errno = 0;
    *out = std::strtoll(token.c_str(), &end, 10);
    return !token.empty() && end == token.c_str() + token.size() &&
           errno != ERANGE && *out > 0;
}

/** Parse positionals 1..3 as M N K; prints the error on a bad one. */
bool
parseMnkArgs(const CliArgs &args, int64_t dims[3])
{
    for (int i = 0; i < 3; ++i) {
        const std::string &token = args.positional[i + 1];
        if (!parseDimArg(token, &dims[i])) {
            std::fprintf(stderr,
                         "error: dimension '%s' must be a positive "
                         "integer\n",
                         token.c_str());
            return false;
        }
    }
    return true;
}

int
runGemm(const CliArgs &args, Session &session)
{
    if (!args.checkPositionals("gemm", 4))
        return 2;
    if (!args.validateFlags("gemm",
                         {"a-sparsity", "b-sparsity", "cluster",
                          "method", "seed", "hybrid-threshold",
                          "dtype"},
                         {"a-sparsity", "b-sparsity", "cluster",
                          "hybrid-threshold"},
                         {}, {"seed"}, kGlobalFlags))
        return 2;
    if (args.positional.size() < 4) {
        std::fprintf(stderr, "usage: dstc_sim gemm M N K [flags]\n");
        return 2;
    }
    int64_t dims[3];
    if (!parseMnkArgs(args, dims))
        return 2;
    const int64_t m = dims[0], n = dims[1], k = dims[2];
    const double sa = args.flagD("a-sparsity", 0.0);
    const double sb = args.flagD("b-sparsity", 0.0);
    if (!checkSparsityFlag("a-sparsity", sa) ||
        !checkSparsityFlag("b-sparsity", sb))
        return 2;
    const double cluster = args.flagD("cluster", 1.0);
    if (!checkClusterFlag("cluster", cluster))
        return 2;

    Method method;
    if (!parseMethodFlag(args, "dual",
                         {"auto", "dual", "dense", "zhu", "ampere",
                          "cusparse", "hybrid"},
                         &method))
        return 2;
    DataType dtype;
    if (!parseDataTypeFlag(args, &dtype))
        return 2;
    if (method == Method::Hybrid && dataTypeIsInteger(dtype)) {
        std::fprintf(stderr,
                     "error: the hybrid composer has no integer "
                     "datapath (per-class quantization scales would "
                     "disagree); use --method dual\n");
        return 2;
    }

    KernelRequest req =
        KernelRequest::gemm(m, n, k, sa, sb)
            .withMethod(method)
            .withDataType(dtype)
            .withClusters(sa > 0 ? cluster : 1.0,
                          sb > 0 ? cluster : 1.0)
            .withSeed(args.flagU64("seed", 1))
            .withHybridThreshold(args.flagD("hybrid-threshold", -1.0));

    KernelReport report = session.run(req);
    std::printf("GEMM %lld x %lld x %lld, A sparsity %.3f, B sparsity "
                "%.3f (%s, %s)\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), sa, sb,
                methodToken(req.method),
                dataTypeToken(req.dataType()));
    printReport(report, session.config(), req.dataType());
    return 0;
}

int
runSpmm(const CliArgs &args, Session &session)
{
    if (!args.checkPositionals("spmm", 4))
        return 2;
    if (!args.validateFlags("spmm",
                         {"a-sparsity", "cluster", "method", "format",
                          "seed", "dtype", "hybrid-threshold"},
                         {"a-sparsity", "cluster", "hybrid-threshold"},
                         {}, {"seed"}, kGlobalFlags))
        return 2;
    if (args.positional.size() < 2) {
        std::fprintf(stderr,
                     "usage: dstc_sim spmm <file.mtx> [N] [flags]\n"
                     "       dstc_sim spmm M N K --a-sparsity S "
                     "[flags]\n");
        return 2;
    }

    Method method;
    if (!parseMethodFlag(args, "dual",
                         {"auto", "dual", "dense", "cusparse",
                          "hybrid"},
                         &method))
        return 2;
    SpmmFormat format;
    if (!parseSpmmFormat(args.flag("format", "auto"), &format)) {
        std::fprintf(stderr,
                     "error: unknown format '%s' (valid: "
                     "auto|narrow|wide)\n",
                     args.flag("format", "auto").c_str());
        return 2;
    }
    DataType dtype;
    if (!parseDataTypeFlag(args, &dtype))
        return 2;
    if (method == Method::Hybrid && dataTypeIsInteger(dtype)) {
        std::fprintf(stderr,
                     "error: the hybrid composer has no integer "
                     "datapath (per-class quantization scales would "
                     "disagree); use --method dual\n");
        return 2;
    }
    const uint64_t seed = args.flagU64("seed", 1);

    // `spmm M N K --a-sparsity S` is the synthetic flavor; anything
    // that does not parse as a dimension is a .mtx path.
    int64_t first_dim = 0;
    const bool synthetic = parseDimArg(args.positional[1], &first_dim);

    Matrix<float> a_mtx, b_dense;
    KernelRequest req;
    if (synthetic) {
        if (args.positional.size() != 4) {
            std::fprintf(stderr,
                         "usage: dstc_sim spmm M N K --a-sparsity S "
                         "[flags]\n");
            return 2;
        }
        int64_t n = 0, k = 0;
        if (!parseDimArg(args.positional[2], &n) ||
            !parseDimArg(args.positional[3], &k)) {
            std::fprintf(stderr, "error: dimensions must be positive "
                                 "integers\n");
            return 2;
        }
        const double sa = args.flagD("a-sparsity", 0.99);
        if (!checkSparsityFlag("a-sparsity", sa))
            return 2;
        const double cluster = args.flagD("cluster", 1.0);
        if (!checkClusterFlag("cluster", cluster))
            return 2;
        req = KernelRequest::spmm(first_dim, n, k, sa);
        req.a_cluster = cluster;
        std::printf("SpMM %lld x %lld x %lld, A sparsity %.4f "
                    "(synthetic)\n",
                    static_cast<long long>(first_dim),
                    static_cast<long long>(n),
                    static_cast<long long>(k), sa);
    } else {
        if (args.positional.size() > 3) {
            std::fprintf(stderr,
                         "usage: dstc_sim spmm <file.mtx> [N] "
                         "[flags]\n");
            return 2;
        }
        const std::string &path = args.positional[1];
        std::string error;
        if (!loadMatrixMarket(path, &a_mtx, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        int64_t n = 32;
        if (args.positional.size() == 3 &&
            !parseDimArg(args.positional[2], &n)) {
            std::fprintf(stderr, "error: N must be a positive "
                                 "integer\n");
            return 2;
        }
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
    if (!args.checkPositionals("conv", 1))
        return 2;
    if (!args.validateFlags("conv",
                         {"batch", "in-c", "hw", "out-c", "kernel",
                          "stride", "pad", "wsp", "asp", "method",
                          "seed", "cluster", "act-cluster",
                          "explicit"},
                         {"wsp", "asp", "cluster", "act-cluster"},
                         {"batch", "in-c", "hw", "out-c", "kernel",
                          "stride", "pad"},
                         {"seed"}, kGlobalFlags))
        return 2;
    ConvShape shape;
    shape.batch = args.flagI("batch", 1);
    shape.in_c = args.flagI("in-c", 0);
    shape.in_h = shape.in_w = args.flagI("hw", 0);
    shape.out_c = args.flagI("out-c", 0);
    shape.kernel = args.flagI("kernel", 3);
    shape.stride = args.flagI("stride", 1);
    shape.pad = args.flagI("pad", 1);
    if (shape.in_c <= 0 || shape.in_h <= 0 || shape.out_c <= 0) {
        std::fprintf(stderr, "usage: dstc_sim conv --in-c C --hw H "
                             "--out-c N [flags]\n");
        return 2;
    }
    if (shape.batch <= 0 || shape.kernel <= 0 || shape.stride <= 0 ||
        shape.pad < 0) {
        std::fprintf(stderr,
                     "error: --batch/--kernel/--stride must be "
                     "positive and --pad non-negative\n");
        return 2;
    }
    if (shape.outH() <= 0) {
        std::fprintf(stderr,
                     "error: convolution output collapses to zero\n");
        return 2;
    }

    Method method;
    if (!parseMethodFlag(args, "dual", {"auto", "dual", "dense", "zhu"},
                         &method))
        return 2;
    const bool explicit_lowering = args.hasFlag("explicit");
    if (explicit_lowering && method == Method::DualSparse) {
        std::fprintf(stderr, "error: the dual-side design has no "
                             "explicit-im2col variant\n");
        return 2;
    }

    const double wsp = args.flagD("wsp", 0.0);
    const double asp = args.flagD("asp", 0.0);
    if (!checkSparsityFlag("wsp", wsp) || !checkSparsityFlag("asp", asp))
        return 2;
    KernelRequest req = KernelRequest::conv(shape, wsp, asp);
    req.method = method;
    req.lowering = explicit_lowering ? Lowering::Explicit
                                     : Lowering::Implicit;
    req.seed = args.flagU64("seed", 1);
    req.b_cluster = args.flagD("cluster", 4.0);
    req.a_cluster = args.flagD("act-cluster", 2.0);
    if (!checkClusterFlag("cluster", req.b_cluster) ||
        !checkClusterFlag("act-cluster", req.a_cluster))
        return 2;

    KernelReport report = session.run(req);
    std::printf("CONV %s (%s)\n", shape.str().c_str(),
                methodName(report.method));
    printReport(report, session.config());
    return 0;
}

/** Parse a model-zoo name; prints the valid set on failure. */
bool
parseModelArg(const std::string &name, DnnModel *out)
{
    if (name == "vgg16")
        *out = makeVgg16();
    else if (name == "resnet18")
        *out = makeResnet18();
    else if (name == "maskrcnn")
        *out = makeMaskRcnn();
    else if (name == "bert")
        *out = makeBertBase();
    else if (name == "rnn")
        *out = makeRnnLM();
    else {
        std::fprintf(stderr,
                     "error: unknown model '%s' (valid: vgg16, "
                     "resnet18, maskrcnn, bert, rnn)\n",
                     name.c_str());
        return false;
    }
    return true;
}

/** Parse the model-granularity --method flag. */
bool
parseModelMethodArg(const std::string &token, ModelMethod *out)
{
    if (token == "dual")
        *out = ModelMethod::DualSparseImplicit;
    else if (token == "dense")
        *out = ModelMethod::DenseImplicit;
    else if (token == "single")
        *out = ModelMethod::SingleSparseImplicit;
    else if (token == "auto")
        *out = ModelMethod::Auto;
    else {
        std::fprintf(stderr,
                     "error: unknown method '%s' (valid: "
                     "auto|dual|dense|single)\n",
                     token.c_str());
        return false;
    }
    return true;
}

int
runModel(const CliArgs &args, Session &session)
{
    if (!args.checkPositionals("model", 2))
        return 2;
    if (!args.validateFlags("model",
                         {"method", "seed", "batched", "dtype"}, {},
                         {}, {"seed"}, kGlobalFlags))
        return 2;
    if (args.positional.size() < 2) {
        std::fprintf(stderr, "usage: dstc_sim model <name> [flags]\n");
        return 2;
    }
    DnnModel model;
    if (!parseModelArg(args.positional[1], &model))
        return 2;

    ModelMethod method;
    if (!parseModelMethodArg(args.flag("method", "dual"), &method))
        return 2;

    const uint64_t seed =
        args.flagU64("seed", 1);
    DataType dtype;
    if (!parseDataTypeFlag(args, &dtype))
        return 2;
    ModelRunner runner(session);
    ModelRunResult result =
        args.hasFlag("batched")
            ? runner.runBatched(model, method, seed, dtype)
            : runner.run(model, method, seed, dtype);
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
    std::printf("%s under %s (%s)%s:\n", model.name.c_str(),
                modelMethodName(method), dataTypeToken(dtype),
                args.hasFlag("batched") ? " (batched)" : "");
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
        if (token == "v100")
            configs->push_back(GpuConfig::v100());
        else if (token == "a100")
            configs->push_back(GpuConfig::a100Like());
        else if (token == "future")
            configs->push_back(GpuConfig::futureGpu());
        else {
            std::fprintf(stderr,
                         "error: unknown device '%s' (valid: v100, "
                         "a100, future)\n",
                         token.c_str());
            return false;
        }
        names->push_back(token);
        start = comma + 1;
    }
    return true;
}

int
runCluster(const CliArgs &args)
{
    if (!args.checkPositionals("cluster", 2))
        return 2;
    // No kGlobalFlags here: the cluster command takes its machine
    // list via --devices, so a stray --a100 must be rejected, not
    // silently ignored.
    if (!args.validateFlags("cluster",
                            {"devices", "policy", "method", "seed",
                             "replicate"},
                            {}, {"replicate"}, {"seed"}, {}))
        return 2;
    if (args.positional.size() < 2) {
        std::fprintf(stderr,
                     "usage: dstc_sim cluster <model> [--devices "
                     "v100,a100,future] [--policy cost|rr|shard] "
                     "[flags]\n");
        return 2;
    }
    DnnModel model;
    if (!parseModelArg(args.positional[1], &model))
        return 2;
    ModelMethod method;
    if (!parseModelMethodArg(args.flag("method", "dual"), &method))
        return 2;

    ClusterOptions opts;
    std::vector<std::string> device_names;
    if (!parseDevicesArg(args.flag("devices", "v100,v100"),
                         &opts.devices, &device_names))
        return 2;
    if (!parsePlacementPolicy(args.flag("policy", "cost"),
                              &opts.policy)) {
        std::fprintf(stderr, "error: unknown policy '%s' (valid: "
                             "cost|rr|shard)\n",
                     args.flag("policy", "cost").c_str());
        return 2;
    }
    const int replicate = args.flagI("replicate", 1);
    if (replicate < 1) {
        std::fprintf(stderr,
                     "error: --replicate must be positive\n");
        return 2;
    }
    const uint64_t seed = args.flagU64("seed", 1);

    Cluster cluster(opts);
    // The serving shape: the same model batch arriving over and over
    // (same seed per replica, so encodings and estimates dedup in
    // the shared cache).
    std::vector<KernelRequest> requests;
    const std::vector<KernelRequest> layer_batch =
        ModelRunner::layerRequests(model, method, seed);
    for (int rep = 0; rep < replicate; ++rep)
        requests.insert(requests.end(), layer_batch.begin(),
                        layer_batch.end());
    std::vector<KernelReport> reports =
        cluster.runBatch(std::move(requests));

    std::printf("%s x %d under %s on %zu devices, policy %s:\n",
                model.name.c_str(), replicate,
                modelMethodName(method), cluster.numDevices(),
                placementPolicyToken(opts.policy));

    const size_t layers = layer_batch.size();
    TextTable per_layer;
    per_layer.setHeader({"layer", "time (us)", "device", "backend"});
    for (size_t i = 0; i < layers; ++i)
        per_layer.addRow({reports[i].tag,
                          fmtDouble(reports[i].stats.timeUs(), 2),
                          std::to_string(reports[i].device),
                          reports[i].backend});
    per_layer.print();

    std::vector<double> device_us(cluster.numDevices(), 0.0);
    double total_us = 0.0;
    for (const KernelReport &report : reports) {
        device_us[report.device] += report.stats.timeUs();
        total_us += report.stats.timeUs();
    }
    std::printf("\nper-device load:\n");
    TextTable per_device;
    per_device.setHeader({"device", "config", "placed",
                          "est busy (us)", "sim time (us)"});
    double makespan_us = 0.0;
    for (size_t d = 0; d < cluster.numDevices(); ++d) {
        DeviceLoad load = cluster.load(d);
        per_device.addRow(
            {std::to_string(d), device_names[d],
             std::to_string(load.placed),
             fmtDouble(load.estimated_busy_us, 1),
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
    if (!args.checkPositionals("serve", 2))
        return 2;
    // Like cluster: the device list comes from --devices, so the
    // global --a100 switch is rejected rather than ignored.
    if (!args.validateFlags("serve",
                            {"devices", "policy", "admission",
                             "pattern", "rate", "duration", "depth",
                             "microbatch", "method", "seed", "faults",
                             "fault-seed", "retry", "retry-budget",
                             "backoff", "hedge", "no-failover",
                             "no-degrade"},
                            {"rate", "duration", "backoff"},
                            {"depth", "microbatch", "retry-budget"},
                            {"seed", "fault-seed"}, {}))
        return 2;
    if (args.positional.size() < 2) {
        std::fprintf(stderr,
                     "usage: dstc_sim serve <model|mix> [--devices "
                     "v100,a100,future] [--policy deadline|cost|rr] "
                     "[--admission reject|shed] [--faults spec] "
                     "[--retry] [--hedge] [flags]\n");
        return 2;
    }

    ModelMethod method;
    if (!parseModelMethodArg(args.flag("method", "dual"), &method))
        return 2;
    const uint64_t seed = args.flagU64("seed", 1);

    // The workload pool: one model's layer batch, or the
    // heterogeneous resnet18+bert mix.
    std::vector<KernelRequest> pool;
    const std::string &pool_name = args.positional[1];
    if (pool_name == "mix") {
        for (const DnnModel &model : {makeResnet18(), makeBertBase()}) {
            const std::vector<KernelRequest> batch =
                ModelRunner::layerRequests(model, method, seed);
            pool.insert(pool.end(), batch.begin(), batch.end());
        }
    } else {
        DnnModel model;
        if (!parseModelArg(pool_name, &model))
            return 2;
        pool = ModelRunner::layerRequests(model, method, seed);
    }

    ServingOptions opts;
    std::vector<std::string> device_names;
    if (!parseDevicesArg(args.flag("devices", "v100,v100"),
                         &opts.devices, &device_names))
        return 2;

    const std::string policy = args.flag("policy", "deadline");
    const std::string admission = args.flag("admission", "reject");
    const std::string pattern = args.flag("pattern", "poisson");
    if (!checkChoiceFlag("policy", policy, {"deadline", "cost", "rr"}) ||
        !checkChoiceFlag("admission", admission, {"reject", "shed"}) ||
        !checkChoiceFlag("pattern", pattern, {"poisson", "bursty"}))
        return 2;
    parseServePolicy(policy, &opts.policy);
    parseAdmissionPolicy(admission, &opts.admission);
    parseTrafficPattern(pattern, &opts.arrivals.pattern);

    opts.arrivals.rate_rpms = args.flagD("rate", 400.0);
    opts.arrivals.duration_ms = args.flagD("duration", 2.0);
    opts.arrivals.seed = seed;
    const int depth = args.flagI("depth", 256);
    const int microbatch = args.flagI("microbatch", 4);
    if (!checkPositiveFlag("rate", opts.arrivals.rate_rpms) ||
        !checkPositiveFlag("duration", opts.arrivals.duration_ms) ||
        !checkPositiveFlag("depth", depth) ||
        !checkPositiveFlag("microbatch", microbatch))
        return 2;
    opts.queue_depth = static_cast<size_t>(depth);
    opts.microbatch = static_cast<size_t>(microbatch);

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
    const int retry_budget = args.flagI("retry-budget", 3);
    opts.retry_backoff_us = args.flagD("backoff", 10.0);
    if (!checkPositiveFlag("retry-budget", retry_budget) ||
        !checkPositiveFlag("backoff", opts.retry_backoff_us))
        return 2;
    opts.retry_budget = retry_budget;

    ServingEngine engine(opts, std::move(pool));
    const double capacity = engine.estimatedCapacityRpms();
    ServingResult result = engine.run();
    const ServingStats &stats = result.stats;

    std::printf("serve %s on %zu devices, policy %s, admission %s, "
                "%s @ %.0f req/ms for %.1f ms (seed %llu)\n",
                pool_name.c_str(), engine.cluster().numDevices(),
                policy.c_str(), admission.c_str(), pattern.c_str(),
                opts.arrivals.rate_rpms, opts.arrivals.duration_ms,
                static_cast<unsigned long long>(seed));
    std::printf("estimated capacity: %.0f req/ms (offered load "
                "%.2fx)\n\n",
                capacity, opts.arrivals.rate_rpms / capacity);

    TextTable per_class;
    per_class.setHeader({"class", "offered", "done", "missed",
                         "rejected", "shed", "p50 (us)", "p99 (us)"});
    for (int c = 0; c < kNumDeadlineClasses; ++c) {
        const ClassStats &cls = stats.per_class[c];
        per_class.addRow(
            {deadlineClassName(static_cast<DeadlineClass>(c)),
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
probeMtx(const std::string &path, int64_t n, Session &session)
{
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

int
runBackends(const CliArgs &args, Session &session)
{
    // With no shape the command describes the static registry; with
    // `backends M N K [--a-sparsity ...]` it reports each backend's
    // applicability and cost-model estimate for that request, plus
    // the hybrid composer's partition preview. `--mtx <file>`
    // switches to the real-matrix SpMM probe instead.
    if (!args.checkPositionals("backends", 4) ||
        !args.validateFlags("backends",
                            {"a-sparsity", "b-sparsity", "cluster",
                             "seed", "hybrid-threshold", "mtx", "n"},
                            {"a-sparsity", "b-sparsity", "cluster",
                             "hybrid-threshold"},
                            {"n"}, {"seed"}, kGlobalFlags))
        return 2;
    const std::string mtx_path = args.flag("mtx", "");
    if (!mtx_path.empty()) {
        if (args.positional.size() != 1) {
            std::fprintf(stderr, "usage: dstc_sim backends --mtx "
                                 "<file.mtx> [--n N]\n");
            return 2;
        }
        const int n = args.flagI("n", 32);
        if (n <= 0) {
            std::fprintf(stderr,
                         "error: --n must be a positive integer\n");
            return 2;
        }
        return probeMtx(mtx_path, n, session);
    }
    if (args.positional.size() != 1 && args.positional.size() != 4) {
        std::fprintf(stderr,
                     "usage: dstc_sim backends [M N K] [flags]\n");
        return 2;
    }
    const bool probe_request = args.positional.size() == 4;

    KernelRequest gemm_probe = KernelRequest::gemm(64, 64, 64);
    if (probe_request) {
        int64_t dims[3];
        if (!parseMnkArgs(args, dims))
            return 2;
        const double sa = args.flagD("a-sparsity", 0.0);
        const double sb = args.flagD("b-sparsity", 0.0);
        if (!checkSparsityFlag("a-sparsity", sa) ||
            !checkSparsityFlag("b-sparsity", sb))
            return 2;
        const double cluster = args.flagD("cluster", 1.0);
        if (!checkClusterFlag("cluster", cluster))
            return 2;
        gemm_probe = KernelRequest::gemm(dims[0], dims[1], dims[2],
                                         sa, sb);
        gemm_probe.a_cluster = sa > 0 ? cluster : 1.0;
        gemm_probe.b_cluster = sb > 0 ? cluster : 1.0;
        gemm_probe.seed = args.flagU64("seed", 1);
        gemm_probe.hybrid_options.threshold =
            args.flagD("hybrid-threshold", -1.0);
        std::printf("request: GEMM %lld x %lld x %lld, A sparsity "
                    "%.3f, B sparsity %.3f\n",
                    static_cast<long long>(dims[0]),
                    static_cast<long long>(dims[1]),
                    static_cast<long long>(dims[2]), sa, sb);
    }

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
        table.addRow({backend->name(), methodName(backend->method()),
                      methodToken(backend->method()),
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
                        methodToken(cls.method), cls.groups.size(),
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
    if (!args.checkPositionals("overhead", 1) ||
        !args.validateFlags("overhead", {"dtype"}, {}, {}, {},
                            kGlobalFlags))
        return 2;
    DataType dtype;
    if (!parseDataTypeFlag(args, &dtype))
        return 2;
    OverheadReport report = estimateOverhead(session.config(), dtype);
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

} // namespace

int
main(int argc, char **argv)
{
    // Presence-only flags never consume a following token (else
    // `--batched bogus` would silently eat the stray argument and
    // `--a100 model ...` would eat the command).
    CliArgs args =
        parseCliArgs(argc, argv,
                     {"a100", "batched", "explicit", "retry", "hedge",
                      "no-failover", "no-degrade"});
    if (args.positional.empty()) {
        std::fprintf(stderr,
                     "usage: dstc_sim <gemm|spmm|conv|model|cluster|"
                     "serve|backends|overhead> [args] [--a100]\n");
        return 2;
    }

    const std::string &command = args.positional[0];
    if (command == "cluster")
        return runCluster(args); // multi-device: --devices, not --a100
    if (command == "serve")
        return runServe(args); // multi-device: --devices, not --a100
    Session session(args.hasFlag("a100") ? GpuConfig::a100Like()
                                         : GpuConfig::v100());
    if (command == "gemm")
        return runGemm(args, session);
    if (command == "spmm")
        return runSpmm(args, session);
    if (command == "conv")
        return runConv(args, session);
    if (command == "model")
        return runModel(args, session);
    if (command == "backends")
        return runBackends(args, session);
    if (command == "overhead")
        return runOverhead(args, session);
    std::fprintf(stderr,
                 "error: unknown command '%s' (valid: gemm, spmm, "
                 "conv, model, cluster, serve, backends, overhead)\n",
                 command.c_str());
    return 2;
}
