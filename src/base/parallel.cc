/**
 * @file
 * Implementation of the fork-join helpers.
 */

#include "base/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "base/env.hh"

namespace difftune
{

namespace
{

/**
 * Set while the current thread is inside a parallel region (either
 * as a pool worker or as the caller of parallelShards). Nested
 * parallel calls from such threads run serially: a pool worker must
 * not wait on the pool, and a caller re-entering run() would
 * self-deadlock on the run mutex.
 */
thread_local bool inParallelRegion = false;

/**
 * Persistent fork-join worker pool. parallelShards() is called once
 * per minibatch during training, so thread reuse matters: spawning
 * threads per call costs more than a small batch's compute.
 */
class WorkerPool
{
  public:
    static WorkerPool &
    instance()
    {
        static WorkerPool pool(workerThreads());
        return pool;
    }

    /** Run job(shard) for shard in [1, shards); caller runs shard 0. */
    void
    run(int shards, const std::function<void(int)> &job)
    {
        // Serialize concurrent fork-joins from different caller
        // threads; shards of one job still run in parallel.
        std::lock_guard run_lock(runMutex_);
        std::unique_lock lock(mutex_);
        job_ = &job;
        pendingShards_ = shards - 1;
        remaining_ = shards - 1;
        nextShard_ = 1;
        ++generation_;
        lock.unlock();
        wake_.notify_all();

        job(0);

        std::unique_lock wait_lock(mutex_);
        done_.wait(wait_lock, [this] { return remaining_ == 0; });
        job_ = nullptr;
    }

    int size() const { return int(threads_.size()) + 1; }

  private:
    explicit WorkerPool(int workers)
    {
        const int helpers = std::max(0, workers - 1);
        threads_.reserve(helpers);
        for (int i = 0; i < helpers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &thread : threads_)
            thread.join();
    }

    void
    workerLoop()
    {
        inParallelRegion = true;
        uint64_t seen = 0;
        while (true) {
            std::unique_lock lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return stop_ || (generation_ != seen && job_);
            });
            if (stop_)
                return;
            seen = generation_;
            while (nextShard_ <= pendingShards_) {
                const int shard = nextShard_++;
                lock.unlock();
                (*job_)(shard);
                lock.lock();
                if (--remaining_ == 0) {
                    lock.unlock();
                    done_.notify_all();
                    lock.lock();
                }
            }
        }
    }

    std::vector<std::thread> threads_;
    std::mutex runMutex_;
    std::mutex mutex_;
    std::condition_variable wake_, done_;
    const std::function<void(int)> *job_ = nullptr;
    uint64_t generation_ = 0;
    int pendingShards_ = 0;
    int nextShard_ = 1;
    int remaining_ = 0;
    bool stop_ = false;
};

} // namespace

size_t
shardChunk(size_t n, size_t shards)
{
    shards = std::max<size_t>(1, std::min(shards, n));
    return (n + shards - 1) / shards;
}

int
parallelShards(size_t n, int max_workers,
               const std::function<void(size_t, size_t, int)> &body)
{
    if (n == 0)
        return 0;
    int workers = max_workers > 0 ? max_workers : workerThreads();
    workers = int(std::min<size_t>(workers, n));
    // Nested parallelism runs serially in the caller (see
    // inParallelRegion above).
    if (workers <= 1 || inParallelRegion) {
        body(0, n, 0);
        return 1;
    }

    WorkerPool &pool = WorkerPool::instance();
    workers = std::min(workers, pool.size());
    const size_t chunk = shardChunk(n, size_t(workers));
    const int shards = int((n + chunk - 1) / chunk);
    std::function<void(int)> job = [&body, chunk, n](int shard) {
        const size_t begin = size_t(shard) * chunk;
        const size_t end = std::min(n, begin + chunk);
        if (begin < end)
            body(begin, end, shard);
    };
    inParallelRegion = true;
    pool.run(shards, job);
    inParallelRegion = false;
    return shards;
}

void
parallelFor(size_t n, int max_workers,
            const std::function<void(size_t)> &body)
{
    parallelShards(n, max_workers,
                   [&body](size_t begin, size_t end, int) {
                       for (size_t i = begin; i < end; ++i)
                           body(i);
                   });
}

} // namespace difftune
