#include "harness.hh"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "common/arena.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/prof.hh"

namespace perfbench {

using namespace pipelayer;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

StepStats
summarize(const std::vector<int64_t> &step_ns)
{
    StepStats s;
    s.samples = static_cast<int64_t>(step_ns.size());
    if (step_ns.empty())
        return s;
    std::vector<int64_t> sorted = step_ns;
    std::sort(sorted.begin(), sorted.end());
    const int64_t p90 = metrics::percentile(sorted, 90);
    s.p50_ms = static_cast<double>(metrics::percentile(sorted, 50)) * 1e-6;
    s.p90_ms = static_cast<double>(p90) * 1e-6;
    double sum = 0.0;
    for (int64_t ns : sorted)
        sum += static_cast<double>(ns);
    s.mean_ms = sum / static_cast<double>(sorted.size()) * 1e-6;
    s.beyond_p90 = static_cast<int64_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p90));
    return s;
}

double
throughputFromMedians(const std::vector<int64_t> &step_ns,
                      const std::vector<bool> &main,
                      const std::vector<double> &items)
{
    std::vector<int64_t> by_kind[2];
    for (size_t k = 0; k < step_ns.size(); ++k)
        by_kind[main[k]].push_back(step_ns[k]);
    double median_ns[2];
    for (int kind = 0; kind < 2; ++kind) {
        std::sort(by_kind[kind].begin(), by_kind[kind].end());
        median_ns[kind] =
            static_cast<double>(metrics::percentile(by_kind[kind], 50));
    }
    double total_items = 0.0, total_ns = 0.0;
    for (size_t k = 0; k < step_ns.size(); ++k) {
        total_items += items[k];
        total_ns += median_ns[main[k]];
    }
    return total_ns > 0.0 ? total_items / (total_ns * 1e-9) : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
rescaleToNominal(uint64_t ns, const std::vector<uint64_t> &reference_ns)
{
    const double reference =
        median(std::vector<double>(reference_ns.begin(), reference_ns.end()));
    return static_cast<double>(ns) * kNominalReferenceNs / reference;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- Spans ----------------------------------------------------------

namespace {

/** Total recorded ns of every prof site (empty while prof is off). */
std::map<std::string, uint64_t>
siteTotals()
{
    std::map<std::string, uint64_t> totals;
    if (!prof::enabled())
        return totals;
    for (const prof::SiteReport &site : prof::snapshot().sites) {
        if (site.total_ns > 0)
            totals[site.name] = site.total_ns;
    }
    return totals;
}

} // namespace

int64_t
Tracer::open(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.step = step_;
    // Site totals at open, turned into deltas at close; both snapshots
    // sit outside [start, end], so the span excludes its own bookkeeping.
    span.site_ns = siteTotals();
    span.start_ns = nowNs();
    spans_.push_back(std::move(span));
    const auto id = static_cast<int64_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int64_t id)
{
    if (id < 0)
        return;
    Span &span = spans_[static_cast<size_t>(id)];
    span.end_ns = nowNs();
    std::map<std::string, uint64_t> delta;
    for (const auto &[site, total] : siteTotals()) {
        const auto it = span.site_ns.find(site);
        const uint64_t before = it == span.site_ns.end() ? 0 : it->second;
        if (total > before)
            delta[site] = total - before;
    }
    span.site_ns = std::move(delta);
    stack_.pop_back();
}

json::Value
Tracer::toJson() const
{
    json::Value arr = json::Value::array();
    for (const Span &span : spans_) {
        json::Value v = json::Value::object();
        v["name"] = span.name;
        v["parent"] = span.parent;
        v["step"] = span.step;
        v["start_ns"] = static_cast<int64_t>(span.start_ns);
        v["end_ns"] = static_cast<int64_t>(span.end_ns);
        json::Value sites = json::Value::object();
        for (const auto &[site, ns] : span.site_ns)
            sites[site] = static_cast<int64_t>(ns);
        v["site_ns"] = std::move(sites);
        arr.push(std::move(v));
    }
    json::Value out = json::Value::object();
    out["spans"] = std::move(arr);
    return out;
}

uint64_t
totalNs(const std::vector<Span> &spans, const std::string &name,
        int64_t step_lo, int64_t step_hi, int64_t *calls)
{
    uint64_t total = 0;
    int64_t n = 0;
    for (const Span &span : spans) {
        if (span.name == name && span.step >= step_lo &&
            span.step <= step_hi) {
            total += span.durationNs();
            ++n;
        }
    }
    if (calls)
        *calls = n;
    return total;
}

uint64_t
totalSelfNs(const std::vector<Span> &spans, const std::string &name,
            const std::vector<std::string> &cover)
{
    const auto covered = [&](const Span &span) {
        uint64_t ns = 0;
        for (const std::string &site : cover) {
            const auto it = span.site_ns.find(site);
            if (it != span.site_ns.end())
                ns += it->second;
        }
        return ns;
    };
    // What each span's children took: their whole durations, and the
    // part of the span's covered site time that fell inside them.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    std::vector<uint64_t> child_cover_ns(spans.size(), 0);
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        const auto p = static_cast<size_t>(span.parent);
        child_ns[p] += span.durationNs();
        child_cover_ns[p] += covered(span);
    }
    uint64_t total = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != name)
            continue;
        const uint64_t own_cover =
            covered(spans[i]) - std::min(covered(spans[i]),
                                         child_cover_ns[i]);
        const uint64_t taken = child_ns[i] + own_cover;
        const uint64_t dur = spans[i].durationNs();
        total += dur > taken ? dur - taken : 0;
    }
    return total;
}

// ---- Result ---------------------------------------------------------

namespace {

/** Failure reasons kept for the human-readable report. */
constexpr size_t kMaxErrors = 8;

} // namespace

void
Result::noteStep(const std::string &error)
{
    ++attempted;
    if (!error.empty()) {
        ++failed;
        correct = false;
        if (errors.size() < kMaxErrors)
            errors.push_back(error);
    }
}

void
Result::fail(const std::string &error)
{
    correct = false;
    if (errors.size() < kMaxErrors)
        errors.push_back(error);
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

json::Value
Result::toJson() const
{
    json::Value out = json::Value::object();
    out["correct"] = json::Value(correct);
    out["attempted"] = attempted;
    out["failed"] = failed;
    json::Value m = json::Value::object();
    for (const Metric &metric : metrics) {
        json::Value v = json::Value::object();
        v["value"] = metric.value;
        v["unit"] = metric.unit;
        m[metric.name] = std::move(v);
    }
    out["metrics"] = std::move(m);
    return out;
}

// ---- CPU choice -----------------------------------------------------

namespace {

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * A fixed piece of host work that shares no code with the simulator
 * and mixes what the workloads do: branchy integer code, small
 * allocations and text, and float arithmetic.  It fits in the L1
 * cache, so what a step left in the caches does not change its time.
 * The yardstick for how fast a CPU runs at the moment.
 */
uint64_t
referenceWork()
{
    std::array<uint32_t, 1024> keys{};
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t &v : keys)
        v = static_cast<uint32_t>(xorshift(x));
    std::sort(keys.begin(), keys.end());
    std::string text;
    for (size_t k = 0; k < 128; ++k) {
        text += std::to_string(keys[k]);
        text += ',';
    }
    double acc = 0.0;
    for (int r = 0; r < 32; ++r) {
        for (uint32_t v : keys)
            acc += static_cast<double>(v & 0xff) * 0.5;
    }
    return keys[keys.size() / 2] + text.size() + static_cast<uint64_t>(acc);
}

void
pinThread(pid_t tid, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(tid, sizeof(set), &set); // best effort
}

/**
 * Keeps the process's threads on the CPUs that run fastest right now.
 * On a shared host one vCPU can run ~1.7x slower than its neighbours
 * for seconds at a time (README.md, "Noise"), so every 500 ms each
 * CPU the process may use runs referenceWork(), and the threads move
 * to the fastest ones unless the current ones are within 10 % of them.
 * Moving threads changes no output and no count.
 */
class CpuChooser
{
  public:
    /** Re-choose @p wanted CPUs if the interval has passed since the
     *  last choice. */
    void refresh(int64_t wanted)
    {
        if (allowed_.empty()) {
            cpu_set_t set;
            CPU_ZERO(&set);
            if (sched_getaffinity(0, sizeof(set), &set) == 0) {
                for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                    if (CPU_ISSET(cpu, &set))
                        allowed_.push_back(cpu);
                }
            }
        }
        const uint64_t now = nowNs();
        if (static_cast<int64_t>(allowed_.size()) <= wanted ||
            (last_ns_ != 0 && now - last_ns_ < kIntervalNs))
            return;
        std::vector<std::pair<uint64_t, int>> speed;
        std::map<int, uint64_t> ns_of;
        for (int cpu : allowed_) {
            pinThread(0, {cpu});
            sched_yield();
            uint64_t best = UINT64_MAX;
            for (int k = 0; k < 3; ++k) {
                const uint64_t t0 = nowNs();
                sink_ = sink_ + referenceWork();
                best = std::min(best, nowNs() - t0);
            }
            speed.emplace_back(best, cpu);
            ns_of[cpu] = best;
        }
        std::sort(speed.begin(), speed.end());
        const uint64_t best_ns = speed[static_cast<size_t>(wanted - 1)].first;
        uint64_t current_ns = 0;
        for (int cpu : current_)
            current_ns = std::max(current_ns, ns_of[cpu]);
        if (current_.empty() || current_ns > best_ns + best_ns / 10) {
            current_.clear();
            for (int64_t k = 0; k < wanted; ++k)
                current_.push_back(speed[static_cast<size_t>(k)].second);
        }
        // Every thread of the process: the caller and the pool workers.
        if (DIR *dir = opendir("/proc/self/task")) {
            while (const dirent *entry = readdir(dir)) {
                if (entry->d_name[0] != '.')
                    pinThread(static_cast<pid_t>(atoi(entry->d_name)),
                              current_);
            }
            closedir(dir);
        }
        last_ns_ = nowNs();
    }

  private:
    static constexpr uint64_t kIntervalNs = 500000000;
    std::vector<int> allowed_;
    std::vector<int> current_;
    uint64_t last_ns_ = 0;
    volatile uint64_t sink_ = 0;
};

CpuChooser g_cpus;

/**
 * The machine's speed of the moment, for rescaleToNominal(): before
 * every step and set-up the same thread times referenceWork(), and the
 * last kWindow of those times are kept.
 */
class SpeedGauge
{
  public:
    void measure()
    {
        uint64_t best = UINT64_MAX;
        for (int k = 0; k < 3; ++k) {
            const uint64_t t0 = nowNs();
            sink_ = sink_ + referenceWork();
            best = std::min(best, nowNs() - t0);
        }
        recent_.push_back(best);
        if (recent_.size() > kWindow)
            recent_.erase(recent_.begin());
    }

    /** @p ns at the nominal speed. */
    int64_t scale(uint64_t ns) const
    {
        return std::llround(rescaleToNominal(ns, recent_));
    }

  private:
    static constexpr size_t kWindow = 9;
    std::vector<uint64_t> recent_;
    volatile uint64_t sink_ = 0;
};

SpeedGauge g_speed;

// ---- Run loops ------------------------------------------------------

/** One step's duration: as measured, and at the nominal speed. */
struct StepTime
{
    int64_t ns = 0;
    int64_t nominal_ns = 0;
};

/**
 * Run step @p i: prepare, the timed step (inside a root "step" span
 * when tracing), then the checks with prof paused so that their
 * re-runs never reach the counts.
 */
StepTime
runStep(Workload &w, int64_t i, Tracer &tracer, Result &res)
{
    g_cpus.refresh(w.threads());
    tracer.setStep(i);
    w.prepare(i);
    g_speed.measure();
    uint64_t t0 = 0, t1 = 0;
    {
        ScopedSpan root(tracer, "step");
        t0 = nowNs();
        w.step(i, tracer);
        t1 = nowNs();
    }
    const StepTime time{static_cast<int64_t>(t1 - t0), g_speed.scale(t1 - t0)};
    const bool profiling = prof::enabled();
    const bool tracing = tracer.enabled();
    prof::setEnabled(false);
    tracer.setEnabled(false);
    res.noteStep(w.verify(i));
    tracer.setEnabled(tracing);
    prof::setEnabled(profiling);
    return time;
}

/** Steps from @p i on until @p seconds of step time and @p min_steps. */
std::vector<StepTime>
timedSteps(Workload &w, int64_t &i, double seconds, int64_t min_steps,
           Tracer &tracer, Result &res)
{
    std::vector<StepTime> steps;
    const uint64_t start = nowNs();
    const auto budget = static_cast<uint64_t>(seconds * 1e9);
    while (nowNs() - start < budget ||
           static_cast<int64_t>(steps.size()) < min_steps)
        steps.push_back(runStep(w, i++, tracer, res));
    return steps;
}

/** Step durations as measured. */
std::vector<int64_t>
measuredNs(const std::vector<StepTime> &steps)
{
    std::vector<int64_t> ns;
    for (const StepTime &s : steps)
        ns.push_back(s.ns);
    return ns;
}

/** throughputFromMedians() at the nominal speed; steps[0] is step @p first. */
double
nominalThroughput(const Workload &w, const std::vector<StepTime> &steps,
                  int64_t first)
{
    std::vector<int64_t> ns;
    std::vector<bool> main;
    std::vector<double> items;
    for (size_t k = 0; k < steps.size(); ++k) {
        const int64_t index = first + static_cast<int64_t>(k);
        ns.push_back(steps[k].nominal_ns);
        main.push_back(w.isMainStep(index));
        items.push_back(w.items(index));
    }
    return throughputFromMedians(ns, main, items);
}

/** Untimed steps before timing: at least one whole cycle. */
int64_t
warmupSteps(const Workload &w, const RunOptions &opt)
{
    return std::max<int64_t>(opt.warmup, w.cycleSteps());
}

/** Traced steps whose counts must repeat exactly: one whole cycle. */
int64_t
countedSteps(const Workload &w)
{
    return std::max<int64_t>(2, w.cycleSteps());
}

double
sumNs(const std::vector<int64_t> &v)
{
    double s = 0.0;
    for (int64_t x : v)
        s += static_cast<double>(x);
    return s;
}

} // namespace

Result
runUntraced(Workload &w, const RunOptions &opt)
{
    setThreadCount(w.threads());
    prof::setEnabled(false);
    Tracer off;
    Result res;

    std::vector<double> setup_s;
    for (int k = 0; k < opt.setups; ++k) {
        g_cpus.refresh(w.threads());
        g_speed.measure();
        const uint64_t t0 = nowNs();
        w.setup(opt.seed, off);
        setup_s.push_back(static_cast<double>(g_speed.scale(nowNs() - t0)) *
                          1e-9);
    }
    int64_t i = 0;
    for (; i < warmupSteps(w, opt); ++i)
        runStep(w, i, off, res);
    const int64_t first = i;
    const std::vector<StepTime> steps =
        timedSteps(w, i, opt.seconds, w.cycleSteps(), off, res);

    std::vector<int64_t> main_ns, main_measured_ns;
    for (size_t k = 0; k < steps.size(); ++k) {
        if (w.isMainStep(first + static_cast<int64_t>(k))) {
            main_ns.push_back(steps[k].nominal_ns);
            main_measured_ns.push_back(steps[k].ns);
        }
    }
    const StepStats s = summarize(main_ns);
    res.notes.push_back(
        std::to_string(s.samples) + " timed steps and " +
        std::to_string(steps.size() - main_ns.size()) +
        " auxiliary calls after " + std::to_string(first) +
        " warm-up; setup_s is the median of " +
        std::to_string(opt.setups) + " set-ups");
    // Reported, not bounded: the tail and the mean follow the host's
    // slow stretches more than the program (README.md, "Noise").
    res.notes.push_back("step p90 " + std::to_string(s.p90_ms) + " ms (" +
                        std::to_string(s.beyond_p90) +
                        " steps beyond it), mean " +
                        std::to_string(s.mean_ms) + " ms");
    res.notes.push_back(
        "times at the nominal speed; as measured, step p50 " +
        std::to_string(summarize(main_measured_ns).p50_ms) + " ms");
    res.add("throughput", nominalThroughput(w, steps, first), "items/s");
    res.add("step_p50_ms", s.p50_ms, "ms");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
}

// ---- Traced run: the per-layer metrics ------------------------------

namespace {

/** Where a per-layer metric's value comes from. */
enum class Source
{
    SiteCalls, //!< prof site calls per step (counted steps)
    SiteMs,    //!< prof site ms per step (traced phase)
    SpanMs,    //!< span ms per step (traced phase)
    SpanSelfMs, //!< span self ms per step, minus `cover` sites
    CallMs,    //!< span ms per call, set-up included
    Count,     //!< tally per step (counted steps)
    Derived,   //!< computed below from several sources
};

struct LayerMetric
{
    std::string name;
    std::string unit;
    Source source;
    std::string key; //!< prof site, span or tally name
    std::vector<std::string> cover = {};
};

const std::vector<std::string> kTensorSites = {
    "conv2d_fwd", "conv2d_bwd_input", "conv2d_bwd_kernel", "im2col",
    "matvec",     "matvect",          "outer"};

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> table = [] {
        std::vector<LayerMetric> t = {
            {"pool.jobs", "count/step", Source::Derived, ""},
            {"pool.chunks", "count/step", Source::Derived, ""},
            {"pool.queue_wait_ms", "ms/step", Source::Derived, ""},
            {"pool.busy_ms", "ms/step", Source::Derived, ""},
            {"pool.efficiency", "ratio", Source::Derived, ""},
        };
        for (const std::string &s : kTensorSites) {
            t.push_back({"tensor." + s + ".calls", "count/step",
                         Source::SiteCalls, "tensor." + s});
            t.push_back({"tensor." + s + ".ms", "ms/step", Source::SiteMs,
                         "tensor." + s});
        }
        const std::vector<LayerMetric> rest = {
            {"quant.train_quantized.ms", "ms/step", Source::SpanMs,
             "quant.train_quantized"},
            // tensor.conv2d_fwd also times the full convolution that
            // conv2d_bwd_input re-enters, so conv2d_bwd_input stays out
            // of the cover: sites in a cover must not nest.
            {"quant.train_quantized.self_ms", "ms/step", Source::SpanSelfMs,
             "quant.train_quantized",
             {"tensor.conv2d_fwd", "tensor.conv2d_bwd_kernel",
              "tensor.matvec", "tensor.matvect", "tensor.outer"}},
            {"nn.accuracy.ms", "ms/step", Source::SpanMs, "nn.accuracy"},
            {"nn.accuracy.images", "count/step", Source::Count,
             "nn.accuracy.images"},
            {"reram.crossbar_matvec.calls", "count/step", Source::SiteCalls,
             "reram.crossbar_matvec"},
            {"reram.crossbar_matvec.ms", "ms/step", Source::SiteMs,
             "reram.crossbar_matvec"},
            {"reram.spike_encode.calls", "count/step", Source::SiteCalls,
             "reram.spike_encode"},
            {"reram.spike_encode.ms", "ms/step", Source::SiteMs,
             "reram.spike_encode"},
            {"reram.input_spikes", "count/step", Source::Count,
             "reram.input_spikes"},
            {"reram.write_pulses", "count/step", Source::Count,
             "reram.write_pulses"},
            {"reram.mvm_ops", "count/step", Source::Count, "reram.mvm_ops"},
            {"reram.if_fires", "count/step", Source::Count,
             "reram.if_fires"},
            {"core.weight_load.ms", "ms", Source::CallMs,
             "core.weight_load"},
            {"core.device_train.ms", "ms/step", Source::SpanMs,
             "core.device_train"},
            {"core.device_predict.ms", "ms/step", Source::SpanMs,
             "core.device_predict"},
            {"core.trainer_cycle.calls", "count/step", Source::SiteCalls,
             "trainer.cycle"},
            {"core.trainer_cycle.ms", "ms/step", Source::SiteMs,
             "trainer.cycle"},
            {"core.trainer_cycle_compute.ms", "ms/step", Source::SiteMs,
             "trainer.cycle_compute"},
            {"core.trainer_cycle_commit.ms", "ms/step", Source::SiteMs,
             "trainer.cycle_commit"},
            {"core.trainer_forward_ops", "count/step", Source::Count,
             "core.trainer_forward_ops"},
            {"core.trainer_backward_ops", "count/step", Source::Count,
             "core.trainer_backward_ops"},
            {"core.trainer_commits", "count/step", Source::Count,
             "core.trainer_commits"},
            {"core.trainer_logical_cycles", "count/step", Source::Count,
             "core.trainer_logical_cycles"},
            {"core.trainer_peak_buffer_entries", "count/step", Source::Count,
             "core.trainer_peak_buffer_entries"},
            {"sim.serving_setup.ms", "ms", Source::CallMs,
             "sim.serving_setup"},
        };
        t.insert(t.end(), rest.begin(), rest.end());
        for (const char *site : {"serving.run", "serving.admit",
                                 "serving.coalesce", "serving.launch",
                                 "sim.run"}) {
            t.push_back({std::string(site) + ".ms", "ms/step",
                         Source::SiteMs, site});
            t.push_back({std::string(site) + ".calls", "count/step",
                         Source::SiteCalls, site});
        }
        const std::vector<LayerMetric> tail = {
            // The span around ServingSim::run, less the leaf sites in
            // it: serving.run's own code, coalescing loop included
            // (serving.coalesce also times the admissions it makes).
            {"serving.run.self_ms", "ms/step", Source::SpanSelfMs,
             "sim.serving_run", {"serving.admit", "serving.launch",
                                 "sim.run"}},
            {"sim.arrivals", "count/step", Source::Count, "sim.arrivals"},
            {"sim.admitted", "count/step", Source::Count, "sim.admitted"},
            {"sim.shed", "count/step", Source::Count, "sim.shed"},
            {"sim.batches", "count/step", Source::Count, "sim.batches"},
            {"sim.admit_ratio", "ratio", Source::Derived, ""},
            {"arch.sched_total_cycles", "count/step", Source::Count,
             "arch.sched_total_cycles"},
            {"arch.sched_forward_ops", "count/step", Source::Count,
             "arch.sched_forward_ops"},
            {"json.parse.ms", "ms/step", Source::SpanMs, "json.parse"},
            {"json.parse.lines", "count/step", Source::Count,
             "json.parse.lines"},
            {"json.emit.ms", "ms/step", Source::SpanMs, "json.emit"},
            {"json.emit.bytes", "count/step", Source::Count,
             "json.emit.bytes"},
            {"workloads.make_task.ms", "ms", Source::CallMs,
             "workloads.make_task"},
            {"workloads.build_net.ms", "ms", Source::CallMs,
             "workloads.build_net"},
            {"arena.bytes_peak", "bytes", Source::Derived, ""},
            {"trace.overhead_pct", "%", Source::Derived, ""},
        };
        t.insert(t.end(), tail.begin(), tail.end());
        return t;
    }();
    return table;
}

/**
 * The deterministic counts of @p steps steps: prof site calls, pool
 * jobs and chunks (from @p report) and tallies (@p after - @p before),
 * each per step.
 */
Tally
countsPerStep(const prof::Report &report, const Tally &before,
              const Tally &after, int64_t steps)
{
    const auto n = static_cast<double>(steps);
    Tally counts;
    counts["pool.jobs"] = static_cast<double>(report.pool.jobs) / n;
    counts["pool.chunks"] = static_cast<double>(report.pool.chunks) / n;
    for (const LayerMetric &m : layerMetrics()) {
        if (m.source == Source::SiteCalls) {
            const prof::SiteReport *site = report.find(m.key);
            counts[m.name] =
                site ? static_cast<double>(site->calls) / n : 0.0;
        } else if (m.source == Source::Count) {
            const auto a = after.find(m.key);
            const auto b = before.find(m.key);
            const double delta = (a == after.end() ? 0.0 : a->second) -
                                 (b == before.end() ? 0.0 : b->second);
            counts[m.name] = delta / n;
        }
    }
    return counts;
}

/** One traced pass: set-up, warm-up, then traced steps. */
struct TracedPass
{
    Tally counted;           //!< counts of the first countedSteps()
    Tally whole;             //!< counts of the whole pass
    prof::Report report;     //!< prof at the end of the pass
    std::vector<StepTime> steps;
};

TracedPass
tracedPass(Workload &w, const RunOptions &opt, double seconds,
           Tracer &tracer, Result &res)
{
    TracedPass pass;
    const bool tracing = tracer.enabled();
    tracer.setStep(-1);
    w.setup(opt.seed, tracer);
    tracer.setEnabled(false);
    int64_t i = 0;
    for (; i < warmupSteps(w, opt); ++i)
        runStep(w, i, tracer, res);

    const Tally before = w.tally();
    prof::reset();
    prof::setEnabled(true);
    tracer.setEnabled(tracing);
    for (int64_t k = 0; k < countedSteps(w); ++k)
        pass.steps.push_back(runStep(w, i++, tracer, res));
    pass.counted =
        countsPerStep(prof::snapshot(), before, w.tally(), countedSteps(w));
    if (seconds > 0.0) {
        std::vector<StepTime> more = timedSteps(w, i, seconds, 0, tracer, res);
        pass.steps.insert(pass.steps.end(), more.begin(), more.end());
    }
    prof::setEnabled(false);
    tracer.setEnabled(false);
    pass.report = prof::snapshot();
    pass.whole = countsPerStep(pass.report, before, w.tally(),
                               static_cast<int64_t>(pass.steps.size()));
    return pass;
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const auto units = [] {
        std::vector<std::pair<std::string, std::string>> u;
        for (const LayerMetric &m : layerMetrics())
            u.emplace_back(m.name, m.unit);
        return u;
    }();
    return units;
}

Result
runTraced(Workload &w, const RunOptions &opt, Tracer &tracer)
{
    setThreadCount(w.threads());
    prof::setEnabled(false);
    Result res;

    // Half the run traced; its last steps run again untraced, for the
    // overhead; then a second traced pass of the counted steps.
    tracer.setEnabled(true);
    TracedPass traced = tracedPass(w, opt, opt.seconds / 2, tracer, res);
    Tracer off;
    const int64_t traced_first = warmupSteps(w, opt);
    const int64_t untraced_first =
        traced_first + static_cast<int64_t>(traced.steps.size());
    int64_t i = untraced_first;
    const std::vector<StepTime> untraced =
        timedSteps(w, i, opt.seconds / 2, w.cycleSteps(), off, res);
    TracedPass replay = tracedPass(w, opt, 0.0, off, res);

    // The isolation self-check.
    if (replay.counted != traced.counted) {
        for (const auto &[name, value] : traced.counted) {
            if (replay.counted[name] != value) {
                res.fail("count " + name + " differs between two traced "
                         "passes: " + std::to_string(value) + " vs " +
                         std::to_string(replay.counted[name]));
            }
        }
    }
    if (w.threads() == 1 && traced.whole.at("pool.jobs") != 0.0)
        res.fail("pool.jobs is not 0 on a 1-thread workload");
    for (const std::string &prefix : w.bypassedLayers()) {
        for (const auto &[name, value] : traced.whole) {
            if (name.rfind(prefix, 0) == 0 && value != 0.0) {
                res.fail(name + " is " + std::to_string(value) + ", not 0, "
                         "on " + w.name());
            }
        }
    }

    const auto steps = static_cast<double>(traced.steps.size());
    const double traced_wall_ns = sumNs(measuredNs(traced.steps));
    res.notes.push_back(
        std::to_string(traced.steps.size()) + " traced steps, " +
        std::to_string(untraced.size()) + " untraced; counts from the "
        "first " + std::to_string(countedSteps(w)) + " traced steps, repeated "
        "in a second traced pass");
    const std::vector<Span> &spans = tracer.spans();
    const auto perStepMs = [&](double ns) { return ns * 1e-6 / steps; };
    uint64_t busy_ns = 0;
    for (const prof::WorkerReport &worker : traced.report.pool.workers)
        busy_ns += worker.busy_ns;

    for (const LayerMetric &m : layerMetrics()) {
        double v = 0.0;
        switch (m.source) {
          case Source::SiteCalls:
          case Source::Count:
            v = traced.counted.at(m.name);
            break;
          case Source::SiteMs: {
            const prof::SiteReport *site = traced.report.find(m.key);
            v = site ? perStepMs(static_cast<double>(site->total_ns)) : 0.0;
            break;
          }
          case Source::SpanMs:
            v = perStepMs(static_cast<double>(
                totalNs(spans, m.key, 0, INT64_MAX)));
            break;
          case Source::SpanSelfMs:
            v = perStepMs(
                static_cast<double>(totalSelfNs(spans, m.key, m.cover)));
            break;
          case Source::CallMs: {
            int64_t calls = 0;
            const uint64_t ns = totalNs(spans, m.key, -1, INT64_MAX, &calls);
            v = calls ? static_cast<double>(ns) * 1e-6 /
                            static_cast<double>(calls)
                      : 0.0;
            break;
          }
          case Source::Derived:
            if (m.name == "pool.jobs" || m.name == "pool.chunks") {
                v = traced.counted.at(m.name);
            } else if (m.name == "pool.queue_wait_ms") {
                v = perStepMs(
                    static_cast<double>(traced.report.pool.queue_wait_ns));
            } else if (m.name == "pool.busy_ms") {
                v = perStepMs(static_cast<double>(busy_ns));
            } else if (m.name == "pool.efficiency") {
                v = static_cast<double>(busy_ns) /
                    (traced_wall_ns * static_cast<double>(w.threads()));
            } else if (m.name == "sim.admit_ratio") {
                const double arrivals = traced.counted.at("sim.arrivals");
                v = arrivals > 0.0
                        ? traced.counted.at("sim.admitted") / arrivals
                        : 0.0;
            } else if (m.name == "arena.bytes_peak") {
                v = static_cast<double>(arena::peakBytes());
            } else if (m.name == "trace.overhead_pct") {
                v = (nominalThroughput(w, untraced, untraced_first) /
                         nominalThroughput(w, traced.steps, traced_first) -
                     1.0) * 100.0;
            }
            break;
        }
        res.add(m.name, v, m.unit);
    }
    return res;
}

} // namespace perfbench
