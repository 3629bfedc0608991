/**
 * @file
 * Host-side profiler: where does the *simulator* spend its wall time?
 *
 * The stats/trace layer (common/stats.hh, common/trace.hh) observes
 * the modeled hardware in logical cycles; this subsystem observes the
 * simulator process itself.  Hot paths mark themselves with an RAII
 * scope —
 *
 * @code
 *   Tensor conv2d(...) {
 *       PL_PROF_SCOPE("tensor.conv2d_fwd");
 *       ...
 *   }
 * @endcode
 *
 * — and every executed scope feeds a thread-local buffer that
 * aggregates, per site: call count, total/min/max wall time, and a
 * log2-binned latency histogram.  The thread pool additionally
 * reports utilization (per-worker busy time, task-queue wait, and
 * efficiency: busy ÷ (wall × threads)) through the notePool*() hooks
 * in common/parallel.cc.
 *
 * Gating: profiling is compiled in unconditionally but recording is
 * off unless `PL_PROFILE=1` is set in the environment or a front end
 * calls setEnabled(true) (bench::Runner does on `--profile=PATH`).
 * When off, a scope costs one relaxed atomic load and a branch — the
 * hot loops stay within noise of an uninstrumented build.
 *
 * Determinism contract: site *call counts* are a function of the
 * executed workload only, so they are identical at every PL_THREADS
 * setting (asserted by tests/test_prof.cc).  Wall times and the pool
 * section are inherently nondeterministic and must never be gated on
 * exactly — tools/bench_compare treats them as informational.
 */

#ifndef PIPELAYER_COMMON_PROF_HH_
#define PIPELAYER_COMMON_PROF_HH_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace pipelayer {
namespace prof {

/** Upper bound on distinct profile sites (asserted at registration). */
constexpr int kMaxSites = 64;

/**
 * Latency histogram bucket count.  Bucket 0 holds 0 ns durations,
 * bucket b in [1, kHistBuckets-2] holds [2^(b-1), 2^b) ns, and the
 * last bucket is the overflow: everything >= 2^(kHistBuckets-2) ns
 * (about 4.6 minutes) lands there.
 */
constexpr int kHistBuckets = 40;

/** Pool slots: slot 0 is the calling thread, slot i worker i-1. */
constexpr int kMaxPoolSlots = 257;

/** The log2 bucket a duration of @p ns falls into (see kHistBuckets). */
int bucketFor(uint64_t ns);

/** True when scopes record (PL_PROFILE=1 or setEnabled(true)). */
bool enabled();

/** Turn recording on or off programmatically (overrides PL_PROFILE). */
void setEnabled(bool on);

namespace detail {

/**
 * Intern @p name as a profile site and return its stable id.  Called
 * once per scope through the PL_PROF_SCOPE static initialiser;
 * re-registering an existing name returns the existing id.
 */
int registerSite(const char *name);

/** Record one completed scope execution (thread-local, lock-free). */
void record(int site, uint64_t ns);

/** Monotonic wall clock in nanoseconds. */
uint64_t nowNs();

} // namespace detail

/** @name Thread-pool utilization hooks (called by common/parallel.cc).
 * Callers must check enabled() first. */
///@{
void notePoolJob();
void notePoolChunk(int64_t slot, uint64_t busy_ns, uint64_t wait_ns);
///@}

/** Aggregated per-site statistics at snapshot time. */
struct SiteReport
{
    std::string name;
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t min_ns = 0; //!< 0 when calls == 0
    uint64_t max_ns = 0;
    std::array<uint64_t, kHistBuckets> hist{};
};

/** One pool slot's accumulated work (slot 0 = the calling thread). */
struct WorkerReport
{
    int64_t slot = 0;
    uint64_t busy_ns = 0;
    uint64_t chunks = 0;
};

/** Thread-pool utilization: jobs, chunks, and queue-wait time. */
struct PoolReport
{
    uint64_t jobs = 0;
    uint64_t chunks = 0;
    uint64_t queue_wait_ns = 0;          //!< post-to-pickup, summed
    std::vector<WorkerReport> workers;   //!< slots that ran chunks
    uint64_t wall_ns = 0; //!< since profiling was enabled or reset()
    int64_t threads = 0;  //!< threadCount() at snapshot time
    /** Σ workers' busy_ns ÷ (wall_ns × threads); 0 when wall_ns is. */
    double efficiency = 0.0;
};

/**
 * A point-in-time aggregation of every thread's buffers.  Sites are
 * sorted by name so the serialised form is stable even though site
 * registration order depends on first-execution order.
 */
class Report
{
  public:
    std::vector<SiteReport> sites;
    PoolReport pool;

    /** Find a site by name; nullptr when absent. */
    const SiteReport *find(const std::string &name) const;

    /**
     * Machine-readable form (schema in docs/observability.md):
     * {"profile_version": 1, "sites": [...], "pool": {...}} with
     * histograms as sparse [bucket, count] pairs.
     */
    json::Value toJson() const;
};

/** Aggregate all thread buffers + pool counters into a Report. */
Report snapshot();

/** Zero every site, histogram and pool counter (sites stay interned). */
void reset();

/**
 * RAII wall-time measurement of one scope execution.  Prefer the
 * PL_PROF_SCOPE macro, which also interns the site name once.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(int site)
        : site_(site), active_(enabled()),
          start_ns_(active_ ? detail::nowNs() : 0)
    {
    }

    ~ScopedTimer()
    {
        if (active_)
            detail::record(site_, detail::nowNs() - start_ns_);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    int site_;
    bool active_;
    uint64_t start_ns_;
};

} // namespace prof
} // namespace pipelayer

#define PL_PROF_CONCAT_(a, b) a##b
#define PL_PROF_CONCAT(a, b) PL_PROF_CONCAT_(a, b)

/**
 * Mark the enclosing scope as profile site @p site_name.  The site is
 * interned once (thread-safe static); each execution then costs one
 * relaxed load when profiling is off, two clock reads when on.
 */
#define PL_PROF_SCOPE(site_name)                                        \
    static const int PL_PROF_CONCAT(pl_prof_site_, __LINE__) =          \
        ::pipelayer::prof::detail::registerSite(site_name);             \
    ::pipelayer::prof::ScopedTimer PL_PROF_CONCAT(                      \
        pl_prof_timer_, __LINE__)(PL_PROF_CONCAT(pl_prof_site_,         \
                                                 __LINE__))

#endif // PIPELAYER_COMMON_PROF_HH_
