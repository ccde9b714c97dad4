#include "core/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "core/thread_pool.h"

namespace dstc {

// ===================================================================
// Placement
// ===================================================================

size_t
earliestFinish(std::span<const DeviceView> devices)
{
    const size_t n = devices.size();
    size_t pick = n;
    for (size_t d = 0; d < n; ++d) {
        const DeviceView &v = devices[d];
        if (!v.alive)
            continue;
        // Strict: ties go to the lower index.
        if (pick == n ||
            (v.meets_deadline && !devices[pick].meets_deadline) ||
            (v.meets_deadline == devices[pick].meets_deadline &&
             v.finish_us < devices[pick].finish_us))
            pick = d;
    }
    return pick;
}

size_t
nthLive(std::span<const DeviceView> devices, uint64_t ticket)
{
    const size_t live = static_cast<size_t>(std::count_if(
        devices.begin(), devices.end(),
        [](const DeviceView &v) { return v.alive; }));
    if (live == 0)
        return devices.size();
    uint64_t step = ticket % live;
    size_t d = 0;
    while (!devices[d].alive || step-- != 0)
        ++d;
    return d;
}

// ===================================================================
// Request digests
// ===================================================================

namespace {

/** Operating-point fields of one side: a synthetic point's own, the
 *  defaults (sparsity 0, cluster 1) for every other form. */
Operand::Synthetic
syntheticOrDefault(const Operand &side)
{
    const Operand::Synthetic *point = side.synthetic();
    return point ? *point : Operand::Synthetic{};
}

/** Flag bit of one operand form, per side, in variant order
 *  (Synthetic, Matrix, Tensor4d, profile, pre-encoded). A B-side
 *  tensor pairs with no request kind. */
constexpr int kFormBitsA[] = {0, 1, 4, 8, 16};
constexpr int kFormBitsB[] = {0, 2, 128, 32, 64};

/** Everything that determines a request's simulated outcome except
 *  the operand contents, the datatype and the SpMM format. */
CacheKey
structuralKey(const KernelRequest &r)
{
    CacheKey key("cluster-request");
    key.i32(static_cast<int32_t>(r.kind));
    key.i32(static_cast<int32_t>(r.method));
    key.i32(static_cast<int32_t>(r.lowering));
    key.u64(r.seed);
    key.i64(r.m).i64(r.n).i64(r.k);
    const Operand::Synthetic a = syntheticOrDefault(r.a);
    const Operand::Synthetic b = syntheticOrDefault(r.b);
    key.f64(a.sparsity).f64(b.sparsity);
    key.f64(a.cluster).f64(b.cluster);
    const SpGemmOptions &g = r.gemm_options;
    // A 0 where the retired outer_product knob sat and two 32s where
    // the retired tile_m/tile_n knobs sat, so every shard placement
    // and serving batch key stays where it was.
    key.i32(0).i32(32).i32(32).i32(g.tile_k);
    // A literal 0 where the retired detailed_merge knob sat, for the
    // same reason.
    key.i32(g.two_level ? 1 : 0)
        .i32(g.functional ? 1 : 0)
        .i32(0)
        .i32(g.sparse_output ? 1 : 0);
    // A pinned hybrid cut changes the partition (and so the stats)
    // even at identical geometry.
    key.f64(r.hybrid_options.threshold);
    const ConvShape &s = r.shape;
    key.i32(s.batch)
        .i32(s.in_c)
        .i32(s.in_h)
        .i32(s.in_w)
        .i32(s.out_c)
        .i32(s.kernel)
        .i32(s.stride)
        .i32(s.pad);
    // Operand forms: a synthetic point and a functional request of
    // the same geometry are different work.
    key.i32(kFormBitsA[r.a.form.index()] | kFormBitsB[r.b.form.index()]);
    return key;
}

} // namespace

uint64_t
requestShardKey(const KernelRequest &request)
{
    return structuralKey(request).value();
}

std::optional<uint64_t>
requestContentDigest(const KernelRequest &request)
{
    const Operand &a = request.a, &b = request.b;
    // Caller-owned pointer encodings are opaque here: hashing the
    // pointer would alias recycled addresses, so those requests are
    // never estimate-cached.
    if (a.profile() || b.profile() || a.encoded() || b.encoded())
        return std::nullopt;
    CacheKey key = structuralKey(request);
    // The datatype and the SpMM format change the modeled time (and
    // the encodings a batch could share) at identical operands.
    key.i32(static_cast<int32_t>(request.dataType()));
    key.i32(static_cast<int32_t>(request.spmm_format));
    if (a.matrix())
        key.matrix(*a.matrix());
    if (b.matrix())
        key.matrix(*b.matrix());
    if (const Tensor4d *t = a.tensor()) {
        key.i32(t->n()).i32(t->c()).i32(t->h()).i32(t->w());
        key.payload(t->data().data(), t->data().size());
    }
    return key.value();
}

// ===================================================================
// Cluster
// ===================================================================

Cluster::Cluster() : Cluster(ClusterOptions{}) {}

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options))
{
    if (options_.devices.empty())
        options_.devices.push_back(GpuConfig::v100());
    sessions_.reserve(options_.devices.size());
    for (const GpuConfig &cfg : options_.devices) {
        SessionOptions so;
        so.config = cfg;
        so.resources = options_.resources;
        so.shared_cache = &cache_;
        sessions_.push_back(std::make_unique<Session>(so));
    }
}

Cluster::~Cluster() = default;

double
Cluster::estimateOn(size_t i, const KernelRequest &request)
{
    return estimateOn(i, request, requestContentDigest(request));
}

double
Cluster::estimateOn(size_t i, const KernelRequest &request,
                    const std::optional<uint64_t> &digest)
{
    DSTC_ASSERT(i < sessions_.size());
    if (!digest)
        return sessions_[i]->plan(request)->estimatedTimeUs();
    CacheKey key("cluster-estimate");
    key.u64(*digest).gpuConfig(options_.devices[i]);
    Session *session = sessions_[i].get();
    return *cache_.getOrBuild<double>(key.value(), [session,
                                                    &request] {
        return session->plan(request)->estimatedTimeUs();
    });
}

std::vector<KernelReport>
Cluster::runBatch(const std::vector<KernelRequest> &requests)
{
    // Placement happens first, in index order and from idle devices,
    // so the schedule is a pure function of the batch; it never reads
    // execution state. Under CostModel a device's finish_us is the
    // estimates already placed there plus the request's own.
    const size_t n = sessions_.size();
    std::vector<DeviceView> views(n);
    std::vector<double> busy_us(n, 0.0);
    std::vector<size_t> devices;
    devices.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const KernelRequest &request = requests[i];
        size_t pick = 0;
        switch (options_.policy) {
        case PlacementPolicy::CostModel: {
            // One content digest per request, not per device: hashing
            // large operands sits on the serial placement path.
            const std::optional<uint64_t> digest =
                requestContentDigest(request);
            for (size_t d = 0; d < n; ++d)
                views[d].finish_us =
                    busy_us[d] + estimateOn(d, request, digest);
            pick = earliestFinish(views);
            busy_us[pick] = views[pick].finish_us;
            break;
        }
        case PlacementPolicy::RoundRobin:
            pick = nthLive(views, i);
            break;
        case PlacementPolicy::StaticShard:
            pick = nthLive(views, requestShardKey(request));
            break;
        }
        devices.push_back(pick);
    }
    std::vector<KernelReport> reports(requests.size());
    ThreadPool &pool = sharedThreadPool();
    parallelFor(&pool, static_cast<int64_t>(requests.size()),
                pool.numThreads(), [&](int64_t i) {
                    reports[i] = sessions_[devices[i]]->run(requests[i]);
                    reports[i].device = static_cast<int>(devices[i]);
                });
    return reports;
}

} // namespace dstc
