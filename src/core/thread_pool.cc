#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace dstc {

ThreadPool::ThreadPool(int num_threads)
{
    DSTC_ASSERT(num_threads > 0);
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        DSTC_ASSERT(!stopping_, "enqueue on a stopping pool");
        jobs_.push(std::move(job));
    }
    jobs_enqueued_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty())
                return; // stopping and drained
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        job();
    }
}

ThreadPool &
sharedThreadPool()
{
    static ThreadPool pool(static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency())));
    return pool;
}

ThreadPool *
resolveTilePool(int num_workers, int *max_workers)
{
    if (num_workers == 1) {
        *max_workers = 1;
        return nullptr;
    }
    ThreadPool &pool = sharedThreadPool();
    *max_workers = num_workers > 0 ? num_workers : pool.numThreads();
    return &pool;
}

void
parallelFor(ThreadPool *pool, int64_t n, int max_workers,
            const std::function<void(int64_t)> &fn)
{
    if (n <= 0)
        return;
    int helpers = 0;
    if (pool && max_workers > 1) {
        helpers = pool->numThreads();
        helpers = static_cast<int>(
            std::min<int64_t>(helpers, n - 1));
        helpers = std::min(helpers, max_workers - 1);
    }
    if (helpers <= 0) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Helpers hold the state through a shared_ptr: one may still be
    // sitting in the queue after the loop drained and the caller
    // returned, so the state cannot live on the caller's stack alone.
    struct State
    {
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> done{0};
        int64_t n = 0;
        const std::function<void(int64_t)> *fn = nullptr;
        std::mutex mu;
        std::condition_variable cv;
    };
    auto state = std::make_shared<State>();
    state->n = n;
    state->fn = &fn; // caller outlives every index (it waits below)

    auto drain = [](const std::shared_ptr<State> &st) {
        for (;;) {
            const int64_t i =
                st->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= st->n)
                return;
            (*st->fn)(i);
            if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                st->n) {
                std::lock_guard<std::mutex> lock(st->mu);
                st->cv.notify_all();
            }
        }
    };

    for (int h = 0; h < helpers; ++h)
        pool->enqueue([state, drain] { drain(state); });
    drain(state);

    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] {
        return state->done.load(std::memory_order_acquire) == state->n;
    });
}

} // namespace dstc
