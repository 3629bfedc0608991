/**
 * @file
 * Host-side parallel execution of the functional model.
 *
 * PipeLayer's performance rests on two forms of hardware parallelism:
 * intra-layer parallelism (the granularity knob G replicates a
 * layer's arrays so many inputs are processed at once, paper §4.3)
 * and inter-layer pipelining (all stages busy every cycle, §3.2).
 * The host mirrors them at the units that are truly independent:
 * the images of a minibatch (Network::trainBatch / accuracy), the
 * points of a sweep, the ops of one Fig. 6 cycle (PipelinedTrainer)
 * and the chips of a cluster.  Each of those loops hands one pool
 * job its indices, and everything nested inside a job runs inline on
 * its worker.  Kernel loops (GEMM, im2col, crossbar MVM) state the
 * work each index carries instead of an index grain; a chunk must
 * carry at least kMinChunkWork operations, so a kernel too small to
 * pay for the pool's wake-up runs inline.
 *
 * Determinism contract: parallel_for() partitions the index range
 * into disjoint chunks that exactly cover it; every output element is
 * written by exactly one worker, and the per-element floating-point
 * evaluation order is the serial loop's.  No loop shares an
 * accumulator across chunks (trainBatch keeps later images' ∂W as
 * private partials and adds them serially in ascending image order,
 * DESIGN.md §7), so results are bit-identical for every thread
 * count, including the serial fallback (PL_THREADS=1) — a property
 * the determinism tests assert.
 *
 * Thread-count selection, strongest first:
 *   1. setThreadCount(n) — programmatic / CLI (--threads=N in tools);
 *   2. the PL_THREADS environment variable;
 *   3. std::thread::hardware_concurrency().
 * A requested count is exact or rejected: parseThreadCount() accepts
 * only an integer in [1, kMaxThreads].
 */

#ifndef PIPELAYER_COMMON_PARALLEL_HH_
#define PIPELAYER_COMMON_PARALLEL_HH_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pipelayer {

/** Largest thread count a caller may request. */
constexpr int64_t kMaxThreads = 256;

/**
 * Minimum operations (multiply-adds or element copies) one kernel
 * chunk must carry before parallel_for() hands it to the pool; see
 * parallel.cc for how it was measured.
 */
extern const int64_t kMinChunkWork;

/**
 * A lazily-started pool of worker threads shared by all hot loops.
 *
 * The pool holds threadCount()-1 workers (the calling thread always
 * participates), parked on a condition variable between jobs.  Only
 * one parallel region runs at a time; nested parallel_for() calls
 * from inside a worker run inline on that worker, so loops can be
 * composed (trainBatch parallelises per-image work whose tensor ops
 * are themselves parallel_for loops) without deadlock.
 */
class ThreadPool
{
  public:
    /** The process-wide pool, created on first use. */
    static ThreadPool &global();

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run @p chunks work items @c fn(chunk_index) across the pool and
     * the calling thread; returns when all chunks finished.  Chunk
     * assignment to threads is dynamic, which is safe because chunks
     * own disjoint output ranges.
     */
    void run(int64_t chunks, const std::function<void(int64_t)> &fn);

    /** Number of worker threads (threadCount() - 1, possibly 0). */
    int64_t workerCount() const
    {
        return static_cast<int64_t>(workers_.size());
    }

  private:
    ThreadPool() = default;

    /** Process that owns the workers (fork children must not join). */
    const int64_t owner_pid_ = currentPid();

    static int64_t currentPid();

    /** Grow the pool to @p n workers (under mu_). */
    void ensureWorkers(int64_t n);

    /** @p slot is this worker's prof pool slot (worker i = slot i+1;
     *  slot 0 is the calling thread). */
    void workerLoop(int64_t slot);

    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< signals workers: job posted
    std::condition_variable done_cv_; //!< signals caller: job drained
    std::vector<std::thread> workers_;

    // State of the in-flight job, guarded by mu_ (the chunk cursor is
    // advanced under the lock; chunk bodies run unlocked).
    const std::function<void(int64_t)> *job_ = nullptr;
    int64_t job_chunks_ = 0;
    int64_t next_chunk_ = 0;
    int64_t done_chunks_ = 0;
    uint64_t job_posted_ns_ = 0; //!< prof: when run() posted the job
    bool shutdown_ = false;
};

/**
 * Number of threads hot loops may use (>= 1).  Resolved once from
 * setThreadCount() / PL_THREADS / hardware_concurrency and cached.
 */
int64_t threadCount();

/**
 * Override the thread count (1 = bit-exact serial fallback — which,
 * by the determinism contract, every other count matches bit-for-bit).
 * Takes effect for subsequent parallel_for() calls; the pool grows on
 * demand and surplus workers stay parked.  Throws ConfigError unless
 * 1 <= n <= kMaxThreads.
 */
void setThreadCount(int64_t n);

/**
 * The thread count written as @p text, from the input named
 * @p input ("PL_THREADS", "--threads", ...).  Throws ConfigError
 * naming @p input and the cap unless @p text is an integer in
 * [1, kMaxThreads]: no rounding, saturation or clamping.
 */
int64_t parseThreadCount(const std::string &text,
                         const std::string &input);

/**
 * Kernel loop: execute fn(chunk_begin, chunk_end) over disjoint
 * sub-ranges that exactly cover [begin, end), where each index costs
 * @p work_per_index operations.  Every chunk carries at least
 * kMinChunkWork operations; a range too small for two such chunks, a
 * thread count of 1, and calls nested inside a parallel region all
 * run fn(begin, end) inline.
 */
void parallel_for(int64_t begin, int64_t end, int64_t work_per_index,
                  const std::function<void(int64_t, int64_t)> &fn);

/**
 * Loop over independent coarse units (minibatch images, pipeline
 * ops, chips): like the kernel form, but every index pays for a
 * chunk of its own, so up to threadCount() chunks of contiguous
 * indices run on the pool.  Chunk c holds indices
 * [begin + range*c/chunks, begin + range*(c+1)/chunks).
 */
void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)> &fn);

/** True while the calling thread executes inside a parallel region. */
bool inParallelRegion();

} // namespace pipelayer

#endif // PIPELAYER_COMMON_PARALLEL_HH_
