/**
 * @file
 * The PipeLayer training/testing pipeline scheduler
 * (paper §3.1 Fig. 3, §3.3 Fig. 6/7, Table 2).
 *
 * The scheduler executes the logical-cycle schedule event by event:
 * image i entering at logical cycle t0 performs
 *  - forward at stage l in cycle t0 + l            (produces d_l),
 *  - output-error seeding in cycle t0 + L + 1      (δ_L from d_L),
 *  - error backward + derivative at stage l in
 *    cycle t0 + 2L + 2 - l                          (δ_{l-1}, ∂W_l),
 * finishing after 2L + 1 cycles.  Pipelined execution admits one new
 * image per cycle within a batch; a weight-update cycle separates
 * batches.  The scheduler drives the inter-stage circular buffers so
 * structural hazards and buffer sizing are checked, not assumed.
 *
 * This scheduler is the one source of the schedule: the timing model
 * (sim::Simulator, arch::Cluster, sim::ServingSim) reads its stats,
 * and core::PipelinedTrainer attaches tensor work to its ops through
 * the run() executor hook.
 *
 * run() drains a monotonic event queue (common/event_queue.hh):
 * every scheduled op is an event keyed by its logical cycle, and the
 * run loop only visits cycles that carry work — O(ops log n) instead
 * of O(horizon x stages), with no horizon-sized allocations.  The
 * pre-event dense cycle walk is preserved as runReference() for the
 * equivalence suite and the speedup bench; both paths share the same
 * per-cycle bookkeeping, so their stats, buffer traffic and traces
 * are identical by construction (DESIGN.md §8).
 */

#ifndef PIPELAYER_ARCH_PIPELINE_HH_
#define PIPELAYER_ARCH_PIPELINE_HH_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "arch/buffers.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace pipelayer {
namespace arch {

/** What to schedule. */
struct ScheduleConfig
{
    bool pipelined = true;
    bool training = true;   //!< false: forward-only (testing phase)
    int64_t batch_size = 64;
    int64_t num_images = 64;

    /**
     * Explicit per-image arrival cycles for a pipelined testing
     * schedule (the serving shape, ROADMAP item 2): image i enters at
     * t0 = arrival_cycles[i] instead of back-to-back.  Empty (the
     * default) keeps the paper's throughput schedule t0 = i.  Sparse
     * arrivals leave idle cycles between images, which only the
     * event-driven core skips — the dense reference walk still visits
     * the whole arrival_cycles.back() + L horizon.
     *
     * The sequence is produced by sim::ArrivalTrace (fixed, Poisson,
     * uniform, bursty and replay generators); a fixed-interval trace
     * {0, k, 2k, ...} reproduces the retired arrival_interval knob
     * byte-identically.  Cycles must be non-negative, non-decreasing,
     * one per image.  Same-cycle arrivals are legal: the colliding
     * stage claims surface as structural hazards, so the scheduler
     * measures overload instead of hiding it (sim::ServingSim's
     * admission queue serialises entries and never produces them).
     */
    std::vector<int64_t> arrival_cycles;

    /**
     * Check the configuration, throwing ConfigError (not asserting)
     * on bad values, mirroring sim::Job::validate():
     * batch_size must be positive (a non-positive batch used to hang
     * buildSchedule forever — the batch loop never advanced),
     * num_images must be non-negative (an empty schedule is legal and
     * runs to zero cycles), and arrival_cycles — only meaningful for
     * pipelined testing — must hold one non-negative, non-decreasing
     * cycle per image.  Called from the PipelineScheduler
     * constructor, so benches and tests driving ScheduleConfig
     * directly can no longer bypass validation.
     */
    void validate() const;
};

/** Everything the scheduler measured. */
struct ScheduleStats
{
    int64_t total_cycles = 0;

    int64_t forward_ops = 0;    //!< stage-forward activations
    int64_t error_ops = 0;      //!< error-backward activations
    int64_t derivative_ops = 0; //!< ∂W computations
    int64_t update_cycles = 0;  //!< weight-update cycles

    /** Busy stage-slots / (stages * cycles): pipeline occupancy. */
    double stage_utilization = 0.0;

    /** Structural hazards detected (same unit claimed twice). */
    int64_t structural_hazards = 0;

    /** Buffer overwrite/eviction violations across all stages. */
    int64_t buffer_violations = 0;

    /** Peak live entries per stage buffer. */
    std::vector<int64_t> peak_buffer_entries;

    /** Busy unit-slots per array stage (forward + error + ∂W ops). */
    std::vector<int64_t> per_stage_ops;

    /** Machine-readable form of every measurement. */
    json::Value toJson() const;
};

/**
 * Cycle-level scheduler for an L-stage pipeline.
 */
class PipelineScheduler
{
  public:
    /** One scheduled operation. */
    struct Op
    {
        enum class Kind { Forward, ErrorSeed, ErrorBack, Derivative,
                          Update, InputWrite };
        Kind kind;
        int64_t image;  //!< image id (-1 for updates)
        int64_t stage;  //!< 0-based stage (-1 for updates/inputs)
    };

    /**
     * Functional work attached to the schedule: called once per busy
     * cycle with that cycle's ops in canonical emission order.
     */
    using Executor =
        std::function<void(int64_t cycle, std::span<const Op> ops)>;

    /**
     * @param depth pipeline depth L (array-layer stages, >= 1;
     *        NetworkMapping::depth() for a mapped network).
     * @param buffer_slack extra (or, if negative, fewer) entries per
     *        stage buffer relative to the paper's 2(L-l)+1 sizing —
     *        used by tests to show the sizing is tight.
     */
    PipelineScheduler(int64_t depth, const ScheduleConfig &config,
                      int64_t buffer_slack = 0);

    /**
     * Run the schedule and return the measurements.
     *
     * Event-driven: ops drain from a monotonic event queue, so only
     * cycles that carry work are visited.  Produces byte-identical
     * stats, buffer traffic and trace output to runReference().
     *
     * @param execute if set, called for every busy cycle after the
     *        scheduler's own hazard, buffer, trace and metrics
     *        bookkeeping for that cycle.
     */
    ScheduleStats run(const Executor &execute = nullptr);

    /**
     * The pre-event reference implementation: builds the dense
     * per-cycle op table over the whole horizon and walks every
     * cycle, idle or not.  Kept (like ops::reference for the compute
     * kernels) so the equivalence tests can prove run() exact and the
     * large-N bench can measure the event core's speedup against it.
     */
    ScheduleStats runReference();

    /**
     * Cycle-loop iterations of the most recent run()/runReference():
     * busy cycles only for the event core, the full walked horizon
     * for the reference walk.  Deterministic, so benches can gate it.
     */
    int64_t lastRunCycleIters() const { return last_run_cycle_iters_; }

    /** Events dispatched by the most recent run (ops + input writes). */
    int64_t lastRunEvents() const { return last_run_events_; }

    /**
     * Attach a pipeline event trace: the unit rows (renderTimeline()
     * order) are declared as tracks immediately, and run() then emits
     * one complete event per (unit, image, cycle) occupancy into
     * @p recorder.  Pass nullptr to detach.  The recorder must
     * outlive run().
     */
    void setTrace(trace::TraceRecorder *recorder);

    /**
     * Continue a trace instead of starting one: run() emits onto the
     * unit rows that an earlier scheduler of the same depth and phase
     * declared from @p first_track, @p cycle_offset cycles later, so
     * back-to-back runs (the trainer's batches) append on one
     * timeline.  The recorder must outlive run().
     */
    void continueTrace(trace::TraceRecorder *recorder,
                       int64_t first_track, int64_t cycle_offset);

    /**
     * Attach a metrics sampler: the "sched.*" counter channels
     * (forward/error/derivative ops, update cycles) are registered
     * immediately, and each run then feeds per-cycle op deltas so the
     * sampler's windows carry compute throughput over time alongside
     * the serving-layer series.  Deltas land on the same timeline as
     * the trace slices (cycle - 1, ts 0 = first compute cycle).  Pass
     * nullptr to detach; attach at most once per sampler (channel
     * names are unique) and run at most once per attachment, or the
     * fed totals double.  The sampler must outlive run().
     */
    void setMetrics(metrics::Sampler *sampler);

    /**
     * Render the schedule as a Fig.-6-style occupancy chart: one row
     * per unit (forward stages, error units, derivative units,
     * update), one column per logical cycle, each cell showing the
     * image occupying the unit.
     *
     * @param max_cycles clip the chart after this many cycles.
     */
    std::string renderTimeline(int64_t max_cycles = 40);

    /** @name Closed forms of paper Fig. 7 / Table 2.
     *
     * Both forms return 0 for an empty schedule (N = 0) — the
     * pipelined testing form N + L - 1 is only valid for N >= 1 —
     * and throw ConfigError on a non-positive batch size or negative
     * image count instead of dividing by zero.
     */
    ///@{

    /** Non-pipelined training: (2L+1)N + N/B cycles. */
    static int64_t analyticTrainingCycles(int64_t depth, int64_t n,
                                          int64_t b, bool pipelined);

    /** Testing: N + L - 1 pipelined, L*N non-pipelined. */
    static int64_t analyticTestingCycles(int64_t depth, int64_t n,
                                         bool pipelined);
    ///@}

  private:
    /** Receives each scheduled op in canonical emission order. */
    using OpEmit = std::function<void(int64_t cycle, const Op &op)>;

    /**
     * Cycles the schedule occupies (the analytic closed form, or its
     * arrival-interval generalisation for serving-shaped testing).
     * Bounds buildSchedule() emission and sizes runReference()'s
     * dense cycle table.
     */
    int64_t scheduleSpan() const;

    void scheduleImage(int64_t image, int64_t t0,
                       const OpEmit &emit) const;

    /**
     * Emit the complete schedule — compute ops, input writes and
     * update cycles — in the canonical order (ascending image within
     * a batch, batches in sequence).  Within any one cycle, emission
     * order is the execution order both run paths observe.
     * @param entry_cycle out: per-image entry cycle t0.
     * @return the last occupied cycle.
     */
    int64_t buildSchedule(const OpEmit &emit,
                          std::vector<int64_t> &entry_cycle) const;

    /** Mutable state shared by the two run paths. */
    struct RunState;

    /**
     * Execute one logical cycle over @p ops: hazard accounting, trace
     * emission, the read-before-write buffer phases and the work
     * counters.  Both run() and runReference() funnel through here,
     * which is what makes them byte-identical.
     */
    void executeCycle(int64_t cycle, std::span<const Op> ops,
                      RunState &state);

    /** Fold RunState into the returned ScheduleStats. */
    ScheduleStats finalizeStats(RunState &state,
                                int64_t last_cycle) const;

    /** Track index of (kind, stage) given the declared row layout. */
    int64_t traceTrack(Op::Kind kind, int64_t stage) const;

    int64_t depth_;
    ScheduleConfig config_;
    int64_t buffer_slack_;
    trace::TraceRecorder *trace_ = nullptr;
    int64_t trace_base_ = 0;   //!< first unit row on trace_
    int64_t trace_offset_ = 0; //!< cycles added to every slice
    metrics::Sampler *metrics_ = nullptr;
    /** @name sched.* channel ids on metrics_. */
    ///@{
    int metric_forward_ = 0;
    int metric_error_ = 0;
    int metric_derivative_ = 0;
    int metric_update_ = 0;
    ///@}
    int64_t last_run_cycle_iters_ = 0;
    int64_t last_run_events_ = 0;
};

} // namespace arch
} // namespace pipelayer

#endif // PIPELAYER_ARCH_PIPELINE_HH_
