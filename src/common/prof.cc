#include "common/prof.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/isa.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace pipelayer {
namespace prof {

namespace {

/**
 * Per-site accumulator.  All fields are relaxed atomics: a site can
 * be hit from pool workers while snapshot() reads, and each field is
 * an independent monotonic tally — no cross-field invariant is read
 * mid-update (a snapshot taken while threads run is approximate;
 * tests snapshot quiescent states, where it is exact).
 */
struct SiteAccum
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> total_ns{0};
    std::atomic<uint64_t> min_ns{UINT64_MAX};
    std::atomic<uint64_t> max_ns{0};
    std::atomic<uint64_t> hist[kHistBuckets] = {};

    void add(uint64_t ns)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        total_ns.fetch_add(ns, std::memory_order_relaxed);
        uint64_t seen = min_ns.load(std::memory_order_relaxed);
        while (ns < seen &&
               !min_ns.compare_exchange_weak(seen, ns,
                                             std::memory_order_relaxed)) {
        }
        seen = max_ns.load(std::memory_order_relaxed);
        while (ns > seen &&
               !max_ns.compare_exchange_weak(seen, ns,
                                             std::memory_order_relaxed)) {
        }
        hist[bucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    }

    void reset()
    {
        calls.store(0, std::memory_order_relaxed);
        total_ns.store(0, std::memory_order_relaxed);
        min_ns.store(UINT64_MAX, std::memory_order_relaxed);
        max_ns.store(0, std::memory_order_relaxed);
        for (auto &h : hist)
            h.store(0, std::memory_order_relaxed);
    }
};

struct ThreadBuf;

/**
 * Process-wide profiler state: the site name registry, the live
 * thread buffers, the retired accumulator (buffers of exited
 * threads), and the pool utilization counters.
 */
struct Registry
{
    std::mutex mu;
    std::vector<std::string> names;               // site id -> name
    std::vector<ThreadBuf *> live;                // registered buffers
    SiteAccum retired[kMaxSites];                 // from exited threads

    std::atomic<uint64_t> epoch_ns{0}; //!< profiling enabled or reset
    std::atomic<uint64_t> pool_jobs{0};
    std::atomic<uint64_t> pool_chunks{0};
    std::atomic<uint64_t> pool_wait_ns{0};
    std::atomic<uint64_t> worker_busy_ns[kMaxPoolSlots] = {};
    std::atomic<uint64_t> worker_chunks[kMaxPoolSlots] = {};

    // Leaked deliberately: thread_local ThreadBuf destructors of
    // late-exiting threads call back in at process teardown, after a
    // static Registry could already be gone.
    static Registry &get()
    {
        static Registry *r = new Registry();
        return *r;
    }
};

struct ThreadBuf
{
    SiteAccum sites[kMaxSites];

    ThreadBuf()
    {
        Registry &reg = Registry::get();
        std::lock_guard<std::mutex> lk(reg.mu);
        reg.live.push_back(this);
    }

    ~ThreadBuf()
    {
        // Fold this thread's tallies into the retired accumulator so
        // short-lived threads still show up in later snapshots.
        Registry &reg = Registry::get();
        std::lock_guard<std::mutex> lk(reg.mu);
        for (int s = 0; s < kMaxSites; ++s) {
            SiteAccum &from = sites[s];
            SiteAccum &to = reg.retired[s];
            const uint64_t calls =
                from.calls.load(std::memory_order_relaxed);
            if (calls == 0)
                continue;
            to.calls.fetch_add(calls, std::memory_order_relaxed);
            to.total_ns.fetch_add(
                from.total_ns.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            const uint64_t mn = from.min_ns.load(std::memory_order_relaxed);
            uint64_t seen = to.min_ns.load(std::memory_order_relaxed);
            while (mn < seen &&
                   !to.min_ns.compare_exchange_weak(
                       seen, mn, std::memory_order_relaxed)) {
            }
            const uint64_t mx = from.max_ns.load(std::memory_order_relaxed);
            seen = to.max_ns.load(std::memory_order_relaxed);
            while (mx > seen &&
                   !to.max_ns.compare_exchange_weak(
                       seen, mx, std::memory_order_relaxed)) {
            }
            for (int b = 0; b < kHistBuckets; ++b) {
                to.hist[b].fetch_add(
                    from.hist[b].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
            }
        }
        reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), this),
                       reg.live.end());
    }
};

ThreadBuf &
threadBuf()
{
    thread_local ThreadBuf buf;
    return buf;
}

/** -1 = unresolved; else 0/1. */
std::atomic<int> g_enabled{-1};

int
resolveEnabled()
{
    int on = 0;
    if (const char *env = std::getenv("PL_PROFILE"))
        on = (*env != '\0' && std::strcmp(env, "0") != 0) ? 1 : 0;
    int expected = -1;
    if (g_enabled.compare_exchange_strong(expected, on,
                                          std::memory_order_relaxed) &&
        on) {
        Registry::get().epoch_ns.store(detail::nowNs(),
                                       std::memory_order_relaxed);
    }
    return g_enabled.load(std::memory_order_relaxed);
}

/** Merge one accumulator into a SiteReport. */
void
mergeInto(SiteReport *out, const SiteAccum &a)
{
    const uint64_t calls = a.calls.load(std::memory_order_relaxed);
    if (calls == 0)
        return;
    out->calls += calls;
    out->total_ns += a.total_ns.load(std::memory_order_relaxed);
    const uint64_t mn = a.min_ns.load(std::memory_order_relaxed);
    if (out->calls == calls || mn < out->min_ns)
        out->min_ns = mn;
    out->max_ns = std::max(out->max_ns,
                           a.max_ns.load(std::memory_order_relaxed));
    for (int b = 0; b < kHistBuckets; ++b)
        out->hist[static_cast<size_t>(b)] +=
            a.hist[b].load(std::memory_order_relaxed);
}

} // namespace

int
bucketFor(uint64_t ns)
{
    if (ns == 0)
        return 0;
    return std::min(static_cast<int>(std::bit_width(ns)),
                    kHistBuckets - 1);
}

bool
enabled()
{
    const int e = g_enabled.load(std::memory_order_relaxed);
    if (e >= 0)
        return e != 0;
    return resolveEnabled() != 0;
}

void
setEnabled(bool on)
{
    if (g_enabled.exchange(on ? 1 : 0, std::memory_order_relaxed) != 1 &&
        on) {
        Registry::get().epoch_ns.store(detail::nowNs(),
                                       std::memory_order_relaxed);
    }
}

namespace detail {

int
registerSite(const char *name)
{
    Registry &reg = Registry::get();
    std::lock_guard<std::mutex> lk(reg.mu);
    for (size_t i = 0; i < reg.names.size(); ++i) {
        if (reg.names[i] == name)
            return static_cast<int>(i);
    }
    PL_ASSERT(reg.names.size() < static_cast<size_t>(kMaxSites),
              "more than %d profile sites registered ('%s')", kMaxSites,
              name);
    reg.names.emplace_back(name);
    return static_cast<int>(reg.names.size() - 1);
}

void
record(int site, uint64_t ns)
{
    PL_DEBUG_ASSERT(site >= 0 && site < kMaxSites,
                    "profile site %d out of range", site);
    threadBuf().sites[site].add(ns);
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace detail

void
notePoolJob()
{
    Registry::get().pool_jobs.fetch_add(1, std::memory_order_relaxed);
}

void
notePoolChunk(int64_t slot, uint64_t busy_ns, uint64_t wait_ns)
{
    PL_DEBUG_ASSERT(slot >= 0 && slot < kMaxPoolSlots,
                    "pool slot %lld out of range", (long long)slot);
    Registry &reg = Registry::get();
    reg.pool_chunks.fetch_add(1, std::memory_order_relaxed);
    reg.pool_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
    reg.worker_busy_ns[slot].fetch_add(busy_ns,
                                       std::memory_order_relaxed);
    reg.worker_chunks[slot].fetch_add(1, std::memory_order_relaxed);
}

const SiteReport *
Report::find(const std::string &name) const
{
    for (const auto &s : sites) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

json::Value
Report::toJson() const
{
    json::Value v = json::Value::object();
    // Additive member, so profile_version stays 1: the SIMD target the
    // profiled kernels dispatched to.
    v["profile_version"] = json::Value(int64_t{1});
    v["isa"] = json::Value(std::string(isa::name(isa::active())));

    json::Value site_arr = json::Value::array();
    for (const auto &s : sites) {
        json::Value sv = json::Value::object();
        sv["name"] = json::Value(s.name);
        sv["calls"] = json::Value(static_cast<int64_t>(s.calls));
        sv["total_ns"] = json::Value(static_cast<int64_t>(s.total_ns));
        sv["min_ns"] = json::Value(static_cast<int64_t>(s.min_ns));
        sv["max_ns"] = json::Value(static_cast<int64_t>(s.max_ns));
        json::Value hist = json::Value::array();
        for (int b = 0; b < kHistBuckets; ++b) {
            const uint64_t count = s.hist[static_cast<size_t>(b)];
            if (count == 0)
                continue;
            json::Value pair = json::Value::array();
            pair.push(json::Value(int64_t{b}));
            pair.push(json::Value(static_cast<int64_t>(count)));
            hist.push(std::move(pair));
        }
        sv["hist"] = std::move(hist);
        site_arr.push(std::move(sv));
    }
    v["sites"] = std::move(site_arr);

    json::Value pv = json::Value::object();
    pv["jobs"] = json::Value(static_cast<int64_t>(pool.jobs));
    pv["chunks"] = json::Value(static_cast<int64_t>(pool.chunks));
    pv["queue_wait_ns"] =
        json::Value(static_cast<int64_t>(pool.queue_wait_ns));
    pv["wall_ns"] = json::Value(static_cast<int64_t>(pool.wall_ns));
    pv["threads"] = json::Value(pool.threads);
    pv["efficiency"] = json::Value(pool.efficiency);
    json::Value workers = json::Value::array();
    for (const auto &w : pool.workers) {
        json::Value wv = json::Value::object();
        wv["slot"] = json::Value(w.slot);
        wv["busy_ns"] = json::Value(static_cast<int64_t>(w.busy_ns));
        wv["chunks"] = json::Value(static_cast<int64_t>(w.chunks));
        workers.push(std::move(wv));
    }
    pv["workers"] = std::move(workers);
    v["pool"] = std::move(pv);
    return v;
}

Report
snapshot()
{
    Registry &reg = Registry::get();
    std::lock_guard<std::mutex> lk(reg.mu);

    Report report;
    report.sites.resize(reg.names.size());
    for (size_t s = 0; s < reg.names.size(); ++s) {
        SiteReport &out = report.sites[s];
        out.name = reg.names[s];
        mergeInto(&out, reg.retired[s]);
        for (ThreadBuf *buf : reg.live)
            mergeInto(&out, buf->sites[s]);
    }
    // Registration order depends on which scope executed first, which
    // can vary across thread schedules; sort for a stable report.
    std::sort(report.sites.begin(), report.sites.end(),
              [](const SiteReport &a, const SiteReport &b) {
                  return a.name < b.name;
              });

    report.pool.jobs = reg.pool_jobs.load(std::memory_order_relaxed);
    report.pool.chunks = reg.pool_chunks.load(std::memory_order_relaxed);
    report.pool.queue_wait_ns =
        reg.pool_wait_ns.load(std::memory_order_relaxed);
    uint64_t busy_ns = 0;
    for (int64_t slot = 0; slot < kMaxPoolSlots; ++slot) {
        const uint64_t chunks =
            reg.worker_chunks[slot].load(std::memory_order_relaxed);
        if (chunks == 0)
            continue;
        report.pool.workers.push_back(
            {slot, reg.worker_busy_ns[slot].load(std::memory_order_relaxed),
             chunks});
        busy_ns += report.pool.workers.back().busy_ns;
    }
    const uint64_t epoch = reg.epoch_ns.load(std::memory_order_relaxed);
    const uint64_t now = detail::nowNs();
    report.pool.wall_ns = epoch != 0 && now > epoch ? now - epoch : 0;
    report.pool.threads = threadCount();
    if (report.pool.wall_ns > 0) {
        report.pool.efficiency =
            static_cast<double>(busy_ns) /
            (static_cast<double>(report.pool.wall_ns) *
             static_cast<double>(report.pool.threads));
    }
    return report;
}

void
reset()
{
    Registry &reg = Registry::get();
    std::lock_guard<std::mutex> lk(reg.mu);
    for (int s = 0; s < kMaxSites; ++s)
        reg.retired[s].reset();
    for (ThreadBuf *buf : reg.live) {
        for (int s = 0; s < kMaxSites; ++s)
            buf->sites[s].reset();
    }
    reg.epoch_ns.store(detail::nowNs(), std::memory_order_relaxed);
    reg.pool_jobs.store(0, std::memory_order_relaxed);
    reg.pool_chunks.store(0, std::memory_order_relaxed);
    reg.pool_wait_ns.store(0, std::memory_order_relaxed);
    for (int64_t slot = 0; slot < kMaxPoolSlots; ++slot) {
        reg.worker_busy_ns[slot].store(0, std::memory_order_relaxed);
        reg.worker_chunks[slot].store(0, std::memory_order_relaxed);
    }
}

} // namespace prof
} // namespace pipelayer
