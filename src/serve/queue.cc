#include "serve/queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dstc {

ServingQueue::ServingQueue(size_t num_devices, size_t depth_bound,
                           AdmissionPolicy policy)
    : depth_bound_(depth_bound == 0 ? 1 : depth_bound),
      policy_(policy), queues_(num_devices)
{
    DSTC_ASSERT(num_devices >= 1, "a queue needs a device");
}

QueuedRequest
ServingQueue::take(size_t device, size_t index)
{
    std::vector<QueuedRequest> &queue = queues_[device];
    QueuedRequest request = std::move(queue[index]);
    queue.erase(queue.begin() + static_cast<long>(index));
    --total_;
    return request;
}

void
ServingQueue::shedOne(std::vector<QueuedRequest> *shed)
{
    // Default: the oldest queued request anywhere (lowest id: ids
    // are the submission order, so "oldest" is well defined and
    // deterministic). Batch-first: the lowest-priority class present
    // loses first (batch, then standard, then interactive), oldest
    // id within it — the graceful-degradation eviction order.
    size_t victim_dev = queues_.size();
    size_t victim_idx = 0;
    for (size_t d = 0; d < queues_.size(); ++d) {
        for (size_t i = 0; i < queues_[d].size(); ++i) {
            const QueuedRequest &q = queues_[d][i];
            if (victim_dev == queues_.size()) {
                victim_dev = d;
                victim_idx = i;
                continue;
            }
            const QueuedRequest &v = queues_[victim_dev][victim_idx];
            bool wins;
            if (shed_batch_first_ &&
                q.deadline_class != v.deadline_class)
                // Higher enum value = lower priority = sheds first.
                wins = static_cast<int>(q.deadline_class) >
                       static_cast<int>(v.deadline_class);
            else
                wins = q.id < v.id;
            if (wins) {
                victim_dev = d;
                victim_idx = i;
            }
        }
    }
    DSTC_ASSERT(victim_dev != queues_.size(),
                "shedding from empty queues");
    QueuedRequest victim = take(victim_dev, victim_idx);
    if (shed)
        shed->push_back(std::move(victim));
}

ServingQueue::Admit
ServingQueue::admit(QueuedRequest request,
                    std::vector<QueuedRequest> *shed, bool force)
{
    DSTC_ASSERT(request.device < queues_.size());
    if (!force && total_ >= depth_bound_) {
        if (policy_ == AdmissionPolicy::Reject)
            return Admit::Rejected;
        shedOne(shed);
    }
    queues_[request.device].push_back(request);
    ++total_;
    return Admit::Admitted;
}

std::vector<QueuedRequest>
ServingQueue::drainDevice(size_t device)
{
    DSTC_ASSERT(device < queues_.size());
    std::vector<QueuedRequest> drained =
        std::move(queues_[device]);
    queues_[device].clear();
    total_ -= drained.size();
    std::sort(drained.begin(), drained.end(),
              [](const QueuedRequest &a, const QueuedRequest &b) {
                  return a.id < b.id;
              });
    return drained;
}

void
ServingQueue::setDepthBound(size_t bound)
{
    depth_bound_ = bound == 0 ? 1 : bound;
}

void
ServingQueue::shedExcess(std::vector<QueuedRequest> *shed)
{
    while (total_ > depth_bound_)
        shedOne(shed);
}

bool
ServingQueue::empty(size_t device) const
{
    return queues_[device].empty();
}

size_t
ServingQueue::depth(size_t device) const
{
    return queues_[device].size();
}

double
ServingQueue::backlogUs(size_t device, double deadline_us) const
{
    double sum = 0.0;
    for (const QueuedRequest &q : queues_[device])
        if (q.deadline_us <= deadline_us)
            sum += q.estimate_us;
    return sum;
}

namespace {

/**
 * Index of the next request to dequeue — earliest deadline when
 * @p edf (ties to the lowest id), else lowest id — among those whose
 * batch_key is @p key when one is given; SIZE_MAX when none is.
 */
size_t
nextIndex(const std::vector<QueuedRequest> &queue, bool edf,
          std::optional<uint64_t> key = std::nullopt)
{
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < queue.size(); ++i) {
        const QueuedRequest &q = queue[i];
        if (key && q.batch_key != *key)
            continue;
        if (best == SIZE_MAX) {
            best = i;
            continue;
        }
        const QueuedRequest &b = queue[best];
        const bool wins =
            edf ? (q.deadline_us < b.deadline_us ||
                   (q.deadline_us == b.deadline_us && q.id < b.id))
                : q.id < b.id;
        if (wins)
            best = i;
    }
    return best;
}

} // namespace

std::optional<QueuedRequest>
ServingQueue::pop(size_t device, bool edf)
{
    const size_t idx = nextIndex(queues_[device], edf);
    if (idx == SIZE_MAX)
        return std::nullopt;
    return take(device, idx);
}

std::vector<QueuedRequest>
ServingQueue::popBatchMates(size_t device, uint64_t key,
                            size_t max_extra, bool edf)
{
    std::vector<QueuedRequest> mates;
    while (mates.size() < max_extra) {
        const size_t idx = nextIndex(queues_[device], edf, key);
        if (idx == SIZE_MAX)
            break;
        mates.push_back(take(device, idx));
    }
    return mates;
}

std::optional<QueuedRequest>
ServingQueue::steal(size_t thief, size_t *donor_out)
{
    size_t donor = queues_.size();
    for (size_t d = 0; d < queues_.size(); ++d) {
        if (d == thief || queues_[d].empty())
            continue;
        if (donor == queues_.size() ||
            queues_[d].size() > queues_[donor].size())
            donor = d;
    }
    if (donor == queues_.size())
        return std::nullopt;
    if (donor_out)
        *donor_out = donor;
    // The donor's least urgent entry: latest deadline, ties to the
    // highest id (the most recently admitted).
    std::vector<QueuedRequest> &queue = queues_[donor];
    size_t best = 0;
    for (size_t i = 1; i < queue.size(); ++i) {
        const QueuedRequest &q = queue[i];
        const QueuedRequest &b = queue[best];
        if (q.deadline_us > b.deadline_us ||
            (q.deadline_us == b.deadline_us && q.id > b.id))
            best = i;
    }
    QueuedRequest request = take(donor, best);
    request.device = thief;
    return request;
}

} // namespace dstc
