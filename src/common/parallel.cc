#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include <unistd.h>

#include "common/logging.hh"
#include "common/prof.hh"

namespace pipelayer {

// One pool job costs tens of microseconds of wake-up and hand-off, so
// a chunk must carry enough work to hide it.  Measured on a 4-vCPU
// x86-64 host (AVX-512 dispatch), 4 threads against 1: with a 2^16
// floor the 512x512 crossbar MVM ran 1.9x and an 8-window array-group
// batch 2.5x slower; with 2^18 a 1024x1024 outer product still lost
// (0.54 vs 0.41 ms); with 2^20 no micro-bench row lost, a 7.2M-MAC
// conv ran 2.1x faster and mnist_pipeline took 3.4-3.7 s against
// 5.3-5.7 s.
extern const int64_t kMinChunkWork = int64_t{1} << 20;

namespace {

/** Resolved thread count; 0 until first resolution. */
std::atomic<int64_t> g_thread_count{0};

/** True on a thread currently executing inside a parallel region. */
thread_local bool tl_in_parallel = false;

/** RAII for the in-region flag (restores across nesting). */
struct RegionGuard
{
    bool saved;
    RegionGuard() : saved(tl_in_parallel) { tl_in_parallel = true; }
    ~RegionGuard() { tl_in_parallel = saved; }
};

int64_t
resolveThreadCount()
{
    if (const char *env = std::getenv("PL_THREADS")) {
        try {
            return parseThreadCount(env, "PL_THREADS");
        } catch (const ConfigError &e) {
            fatal("%s", e.what());
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<int64_t>(std::max<int64_t>(1, hw), kMaxThreads);
}

} // namespace

int64_t
parseThreadCount(const std::string &text, const std::string &input)
{
    // Digits only: strtoll alone would accept a sign or leading blanks.
    errno = 0;
    const long long v = std::strtoll(text.c_str(), nullptr, 10);
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || v < 1 || v > kMaxThreads) {
        throw ConfigError(input + " must be an integer in [1, " +
                          std::to_string(kMaxThreads) + "], got '" +
                          text + "'");
    }
    return v;
}

int64_t
threadCount()
{
    int64_t n = g_thread_count.load(std::memory_order_relaxed);
    if (n == 0) {
        n = resolveThreadCount();
        g_thread_count.store(n, std::memory_order_relaxed);
    }
    return n;
}

void
setThreadCount(int64_t n)
{
    if (n < 1 || n > kMaxThreads) {
        throw ConfigError("thread count must be in [1, " +
                          std::to_string(kMaxThreads) + "], got " +
                          std::to_string(n));
    }
    g_thread_count.store(n, std::memory_order_relaxed);
}

bool
inParallelRegion()
{
    return tl_in_parallel;
}

ThreadPool &
ThreadPool::global()
{
    // Deliberately never destroyed.  A fork()ed child (gtest death
    // tests, daemonising callers) inherits the pool's mutex/condvar
    // with the parent's parked workers still recorded in them, and
    // destroying such a condvar at exit blocks forever in
    // pthread_cond_destroy.  Workers park between jobs, so skipping
    // shutdown loses nothing; the pointer below keeps the object
    // reachable, so leak checkers stay quiet.
    static ThreadPool *pool = new ThreadPool();
    return *pool;
}

int64_t
ThreadPool::currentPid()
{
    return static_cast<int64_t>(getpid());
}

ThreadPool::~ThreadPool()
{
    if (currentPid() != owner_pid_) {
        // A fork()ed child (gtest death tests, daemonising callers)
        // inherits this object but not the worker threads; joining
        // would wait on threads that do not exist in this process.
        for (auto &w : workers_)
            w.detach();
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::ensureWorkers(int64_t n)
{
    while (static_cast<int64_t>(workers_.size()) < n) {
        const int64_t slot = static_cast<int64_t>(workers_.size()) + 1;
        workers_.emplace_back([this, slot] { workerLoop(slot); });
    }
}

void
ThreadPool::workerLoop(int64_t slot)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        work_cv_.wait(lk, [this] {
            return shutdown_ || (job_ && next_chunk_ < job_chunks_);
        });
        if (shutdown_)
            return;
        while (job_ && next_chunk_ < job_chunks_) {
            const int64_t chunk = next_chunk_++;
            const auto *fn = job_;
            const uint64_t posted_ns = job_posted_ns_;
            lk.unlock();
            const bool profiling = prof::enabled() && posted_ns != 0;
            const uint64_t t0 = profiling ? prof::detail::nowNs() : 0;
            {
                RegionGuard guard;
                (*fn)(chunk);
            }
            if (profiling) {
                const uint64_t t1 = prof::detail::nowNs();
                prof::notePoolChunk(slot, t1 - t0,
                                    t0 > posted_ns ? t0 - posted_ns : 0);
            }
            lk.lock();
            if (++done_chunks_ == job_chunks_)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::run(int64_t chunks, const std::function<void(int64_t)> &fn)
{
    PL_ASSERT(chunks >= 1, "need at least one chunk");
    if (currentPid() != owner_pid_) {
        // A fork()ed child (gtest death tests, daemonising callers)
        // inherits the pool object mid-life but none of its worker
        // threads, and the copied mutex/condvar internals may be in
        // any state; touching them can deadlock.  Run inline.
        RegionGuard guard;
        for (int64_t c = 0; c < chunks; ++c)
            fn(c);
        return;
    }
    std::unique_lock<std::mutex> lk(mu_);
    if (job_) {
        // Another caller's job is in flight (concurrent outer-level
        // use of the substrate); run this job inline instead of
        // interleaving two jobs in the pool.
        lk.unlock();
        RegionGuard guard;
        for (int64_t c = 0; c < chunks; ++c)
            fn(c);
        return;
    }
    const bool profiling = prof::enabled();
    ensureWorkers(std::min(threadCount() - 1, chunks - 1));
    job_ = &fn;
    job_chunks_ = chunks;
    next_chunk_ = 0;
    done_chunks_ = 0;
    job_posted_ns_ = profiling ? prof::detail::nowNs() : 0;
    if (profiling)
        prof::notePoolJob();
    work_cv_.notify_all();

    // The caller works too, then waits for stragglers.
    while (next_chunk_ < job_chunks_) {
        const int64_t chunk = next_chunk_++;
        const uint64_t posted_ns = job_posted_ns_;
        lk.unlock();
        const uint64_t t0 = profiling ? prof::detail::nowNs() : 0;
        {
            RegionGuard guard;
            fn(chunk);
        }
        if (profiling) {
            const uint64_t t1 = prof::detail::nowNs();
            prof::notePoolChunk(/*slot=*/0, t1 - t0,
                                t0 > posted_ns ? t0 - posted_ns : 0);
        }
        lk.lock();
        ++done_chunks_;
    }
    done_cv_.wait(lk, [this] { return done_chunks_ == job_chunks_; });
    job_ = nullptr;
}

void
parallel_for(int64_t begin, int64_t end, int64_t work_per_index,
             const std::function<void(int64_t, int64_t)> &fn)
{
    PL_ASSERT(begin <= end && work_per_index >= 0,
              "bad parallel_for range [%lld, %lld) work %lld",
              (long long)begin, (long long)end,
              (long long)work_per_index);
    const int64_t range = end - begin;
    if (range == 0)
        return;
    // Indices one chunk needs to carry kMinChunkWork operations:
    // ceil(kMinChunkWork / work_per_index), without overflow.
    const int64_t min_indices =
        1 + (kMinChunkWork - 1) / std::max<int64_t>(work_per_index, 1);
    const int64_t chunks = std::min(threadCount(), range / min_indices);
    if (chunks < 2 || tl_in_parallel) {
        fn(begin, end);
        return;
    }
    ThreadPool::global().run(chunks, [&](int64_t c) {
        const int64_t b = begin + range * c / chunks;
        const int64_t e = begin + range * (c + 1) / chunks;
        fn(b, e);
    });
}

void
parallel_for(int64_t begin, int64_t end,
             const std::function<void(int64_t, int64_t)> &fn)
{
    // Every index alone carries the floor: one index per chunk.
    parallel_for(begin, end, kMinChunkWork, fn);
}

} // namespace pipelayer
