/**
 * @file
 * The measurement half of the host-time benchmark: step-time
 * statistics, spans kept in memory, self-time subtraction, the run
 * loops and the result record.  The workloads themselves live in
 * workloads.hh; README.md says what each one is for.
 *
 * Two kinds of run share one step loop:
 *  - untraced (the end-to-end metrics): prof is off, every step is
 *    timed from outside and checked, and only the step bodies count;
 *  - traced (the per-layer metrics): prof is on and the workload's
 *    calls into each module are wrapped in spans.  It also runs the
 *    same steps untraced, for the tracing overhead, and replays its
 *    first steps from a fresh set-up, to show that the deterministic
 *    counts repeat exactly.
 */

#ifndef PERFBENCH_HARNESS_HH_
#define PERFBENCH_HARNESS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

/** Monotonic wall clock in nanoseconds. */
uint64_t nowNs();

/** One run's step times, summarised with nearest-rank percentiles. */
struct StepStats
{
    int64_t samples = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double mean_ms = 0.0;
    int64_t beyond_p90 = 0; //!< samples strictly slower than p90
};

/** Summarise step durations (ns) with metrics::percentile's rule. */
StepStats summarize(const std::vector<int64_t> &step_ns);

/**
 * Items per second if every step took the (nearest-rank) median time
 * of its kind: Σ items ÷ Σ median(kind of step).  @p main marks each
 * step's kind; with one kind this is items per step ÷ p50.
 */
double throughputFromMedians(const std::vector<int64_t> &step_ns,
                             const std::vector<bool> &main,
                             const std::vector<double> &items);

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> v);

/**
 * How long the benchmark's reference loop (harness.cc: a fixed piece
 * of sorting, text and float work that fits in the L1 cache) takes on
 * an unloaded 2.0 GHz Xeon vCPU of the host the benchmark was tuned on.
 * Step and set-up times are reported at this nominal speed.
 */
constexpr double kNominalReferenceNs = 50000.0;

/**
 * A host time at the nominal speed: @p ns × kNominalReferenceNs ÷ the
 * median of @p reference_ns, the reference loop's latest times on the
 * same thread.  While the host runs a CPU slower, both slow together
 * and the ratio stays (README.md, "Noise").
 */
double rescaleToNominal(uint64_t ns, const std::vector<uint64_t> &reference_ns);

/** Peak resident memory of this process so far, in MB. */
double peakRssMb();

/** One interval the traced run recorded. */
struct Span
{
    std::string name;
    int64_t parent = -1; //!< index of the enclosing span; -1 at the root
    int64_t step = -1;   //!< step id; -1 during set-up
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /** prof site time recorded while the span was open, by site. */
    std::map<std::string, uint64_t> site_ns;

    uint64_t durationNs() const { return end_ns - start_ns; }
};

/**
 * Spans around the benchmark's own calls into the library, kept in
 * memory until the run ends.  While disabled, open() and close() do
 * nothing.  Single-threaded: spans are opened on the calling thread,
 * between the library's parallel regions.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Step id stamped on spans opened from now on (-1 = set-up). */
    void setStep(int64_t step) { step_ = step; }

    /** Open a span nested in the innermost open one; -1 if disabled. */
    int64_t open(const std::string &name);

    /** Close span @p id (the innermost open one). */
    void close(int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** {"spans": [{name, parent, step, start_ns, end_ns, sites}]}. */
    pipelayer::json::Value toJson() const;

  private:
    bool enabled_ = false;
    int64_t step_ = -1;
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int64_t id_;
};

/**
 * Σ over the spans named @p name, with steps in [step_lo, step_hi], of
 * their durations.  @p calls (optional) receives how many there were.
 */
uint64_t totalNs(const std::vector<Span> &spans, const std::string &name,
                 int64_t step_lo, int64_t step_hi, int64_t *calls = nullptr);

/**
 * Σ over the spans named @p name of their self time: the span's
 * duration minus its child spans, minus the time of the @p cover prof
 * sites recorded in it outside those children, clamped at 0.  The
 * sites in @p cover must not nest in one another, or their time would
 * be taken away twice.
 */
uint64_t totalSelfNs(const std::vector<Span> &spans, const std::string &name,
                     const std::vector<std::string> &cover);

/** Deterministic work counts, by metric name. */
using Tally = std::map<std::string, double>;

/**
 * One benchmark workload: a set-up and a repeatable step, built only
 * from seeded inputs.  The harness times step() alone; prepare() and
 * verify() are bookkeeping and checks outside the timed region.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Host threads the workload runs at (pinned). */
    virtual int64_t threads() const = 0;

    /**
     * Steps in the workload's repeating pattern.  A loop may mix main
     * steps with auxiliary calls (a training epoch between single
     * predictions); the step percentiles cover main steps only.
     */
    virtual int64_t cycleSteps() const { return 1; }

    /** True when step @p i is a main step, not an auxiliary call. */
    virtual bool isMainStep(int64_t i) const
    {
        (void)i;
        return true;
    }

    /** Images or requests step @p i processes. */
    virtual double items(int64_t i) const = 0;

    /**
     * Per-layer metric-name prefixes whose counts must be 0 here: the
     * layers this workload bypasses by design (isolation self-check).
     */
    virtual std::vector<std::string> bypassedLayers() const = 0;

    /** Build fresh inputs and state from @p seed, replacing any. */
    virtual void setup(uint64_t seed, Tracer &tracer) = 0;

    /** Untimed work before step @p i (e.g. keep what a re-run needs). */
    virtual void prepare(int64_t i) { (void)i; }

    /** The timed step. */
    virtual void step(int64_t i, Tracer &tracer) = 0;

    /** Check step @p i's outputs: "" when correct, else the reason. */
    virtual std::string verify(int64_t i) = 0;

    /** Work counts step() accumulated since the last setup(). */
    const Tally &tally() const { return tally_; }

  protected:
    Tally tally_;
};

/** One metric as printed: value and unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A run's outcome: the last line of the benchmark's stdout. */
struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  //!< sample counts, for the report
    std::vector<std::string> errors; //!< the first failure reasons

    /** Count one checked step; a non-empty @p error marks it failed. */
    void noteStep(const std::string &error);

    /** Record a failed self-check (not a step). */
    void fail(const std::string &error);

    void add(const std::string &name, double value, const std::string &unit);

    /** {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. */
    pipelayer::json::Value toJson() const;
};

/** Knobs of one run, from the command line. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10.0;
    int setups = 7; //!< set-ups per untraced run (setup_s is their median)
    int warmup = 2; //!< untimed steps before timing, at least one cycle
};

/** The end-to-end run: prof off, every step timed and checked. */
Result runUntraced(Workload &w, const RunOptions &opt);

/**
 * The traced run: per-layer metrics, tracing overhead and the
 * isolation self-check.  @p tracer keeps the spans for writing out.
 */
Result runTraced(Workload &w, const RunOptions &opt, Tracer &tracer);

/** Names and units of the per-layer metrics, in output order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH_
