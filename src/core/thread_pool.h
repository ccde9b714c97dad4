/**
 * @file
 * Fixed-size worker pool behind every parallel loop of the library.
 * Deliberately minimal: a locked queue of type-erased jobs. Nothing
 * but parallelFor enqueues on the process-shared pool, and
 * determinism of the simulation results does not depend on
 * scheduling — every request is a pure function of its own inputs —
 * so no ordering guarantees are needed.
 *
 * parallelFor layers a work-stealing index loop on top: the calling
 * thread always participates, so a parallelFor issued from inside a
 * pool job (e.g. a Session::runBatch request whose kernel
 * parallelizes its own tile loop) makes progress even when every
 * worker is busy. Batch-level and kernel-level loops therefore share
 * one pool, and every job finishes before the loop that issued it
 * returns.
 */
#ifndef DSTC_CORE_THREAD_POOL_H
#define DSTC_CORE_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dstc {

/** Fixed-size thread pool executing enqueued jobs FIFO. */
class ThreadPool
{
  public:
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job; it runs on some worker thread. */
    void enqueue(std::function<void()> job);

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Jobs enqueued since construction (test hook: a loop run with
     *  one worker must enqueue none). */
    uint64_t
    jobsEnqueued() const
    {
        return jobs_enqueued_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::atomic<uint64_t> jobs_enqueued_{0};
};

/**
 * The lazily-created process-wide pool (hardware_concurrency
 * workers). Session/Cluster batches and the kernel-internal loops
 * all route here rather than spawning pools of their own, so a batch
 * of concurrent requests cannot oversubscribe the machine.
 */
ThreadPool &sharedThreadPool();

/**
 * Run @p fn(i) for every i in [0, n), distributing indices over up
 * to @p max_workers threads (the caller plus helpers drawn from
 * @p pool). The caller participates and the call returns only after
 * every index completed. Safe to invoke concurrently from multiple
 * threads, and from inside a job of the same pool.
 *
 * @p pool may be null and @p max_workers <= 1 forces a plain serial
 * loop. Note the iteration order is arbitrary under parallelism:
 * callers needing deterministic aggregation should write per-index
 * results and reduce in index order afterwards.
 */
void parallelFor(ThreadPool *pool, int64_t n, int max_workers,
                 const std::function<void(int64_t)> &fn);

/**
 * Resolve the shared num_workers knob of the kernel-internal loops
 * (SpGemmOptions::num_workers, ConvOptions::num_workers, ...): 1
 * runs serially in the caller (null pool), 0 uses every thread of
 * the process-shared pool, N caps the parallelism at N. Returns the
 * pool to pass to parallelFor and writes the worker cap.
 */
ThreadPool *resolveTilePool(int num_workers, int *max_workers);

} // namespace dstc

#endif // DSTC_CORE_THREAD_POOL_H
