/**
 * @file
 * A small reusable worker pool plus the process-wide parallelism knob.
 *
 * Every parallel stage in the system (multi-workload compression,
 * farm job queues, benchmark suite construction) runs through this
 * pool. Work is always *deterministically decomposed*: callers split
 * their problem into an index space, the pool only decides which
 * thread evaluates which index, and callers combine results by index.
 * Each compression itself runs serially, so compressed output is
 * byte-identical for any job count.
 *
 * The job count comes from, in priority order: an explicit
 * setGlobalJobs() call (e.g. a --jobs flag), the CODECOMP_JOBS
 * environment variable, then std::thread::hardware_concurrency().
 */

#ifndef CODECOMP_SUPPORT_THREAD_POOL_HH
#define CODECOMP_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace codecomp {

/**
 * Fixed-size pool of worker threads executing batches of tasks.
 *
 * A pool of size N uses N-1 dedicated workers plus the submitting
 * thread (which drains the queue alongside them in runBatch), so
 * ThreadPool(1) degenerates to inline serial execution with zero
 * thread traffic. The first exception thrown by any task is captured
 * and rethrown on the submitting thread once the batch has drained.
 */
class ThreadPool
{
  public:
    /** Create a pool running up to @p threads tasks concurrently. */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;
    ~ThreadPool();

    /** Concurrency level (dedicated workers + the submitting thread). */
    unsigned threadCount() const { return workerCount_ + 1; }

    /** True while a batch is being drained. */
    bool
    busy()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return current_ != nullptr;
    }

    /**
     * Run every task in @p tasks and wait for all of them. The calling
     * thread participates. If any task throws, the first captured
     * exception is rethrown here after the whole batch finishes.
     */
    void runBatch(std::vector<std::function<void()>> tasks);

    /**
     * Evaluate body(i) for every i in [0, n), spread over the pool.
     * Indices are chunked contiguously; determinism of the *results*
     * is the caller's job (index-addressed output slots).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

  private:
    struct Batch
    {
        std::vector<std::function<void()>> tasks;
        size_t next = 0;      //!< next task index to claim
        size_t unfinished;    //!< tasks not yet completed
        std::exception_ptr error;
    };

    void workerLoop();
    /** Claim-and-run tasks from @p batch until none are left. */
    void drain(Batch &batch, std::unique_lock<std::mutex> &lock);

    std::mutex mutex_;
    std::condition_variable wake_;     //!< workers: new batch available
    std::condition_variable done_;     //!< submitter: batch finished
    std::vector<std::thread> workers_;
    unsigned workerCount_ = 0;
    Batch *current_ = nullptr; //!< batch being drained, if any
    bool stopping_ = false;
};

/** Pool-size default: CODECOMP_JOBS if set, else hardware threads. */
unsigned defaultJobs();

/** Override the process-wide job count (0 restores defaultJobs()). */
void setGlobalJobs(unsigned jobs);

/** The process-wide job count used by all parallel stages. */
unsigned globalJobs();

/**
 * The process-wide pool, sized to globalJobs(). Safe to call from any
 * thread: access is serialized internally. Rebuilt when the job count
 * changed while the pool is idle; a resize attempted while a batch is
 * in flight is a catchable fatal (call setGlobalJobs before, not
 * during, a parallel stage).
 */
ThreadPool &globalPool();

/**
 * Evaluate fn(i) for i in [0, n) on the global pool and return the
 * results in index order, so output is independent of scheduling.
 */
template <typename R>
std::vector<R>
parallelMap(size_t n, const std::function<R(size_t)> &fn)
{
    std::vector<R> results(n);
    globalPool().parallelFor(
        n, [&results, &fn](size_t i) { results[i] = fn(i); });
    return results;
}

} // namespace codecomp

#endif // CODECOMP_SUPPORT_THREAD_POOL_HH
