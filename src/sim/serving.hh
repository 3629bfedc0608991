/**
 * @file
 * The inference-serving subsystem (ROADMAP item 2, docs/serving.md):
 * request admission, batch coalescing and backpressure as
 * first-class, measurable objects.
 *
 * ServingSim consumes a deterministic ArrivalTrace, admits requests
 * into a bounded FIFO queue (arrivals past capacity are shed and
 * counted — explicit backpressure, never silent drops), coalesces
 * the queue into batches sized toward the pipeline sweet spot
 * implied by the paper's (N/B)(2L+B+1) form under a configurable
 * max-wait deadline, and replays the admitted entries through the
 * event-queue scheduler once (a sim::Job with a replay trace of entry
 * cycles), with any trace or metrics observers attached, then prices
 * that schedule with Simulator::price.
 *
 * Everything the policy decides is integer logical-cycle arithmetic,
 * so the whole report — per-request latencies, percentiles, queue
 * depths, batch histogram — is byte-deterministic across thread
 * counts and repeated runs, which is what lets bench_serving gate
 * p50/p95/p99 with tools/bench_compare.  Wall-clock measurements of
 * the simulating host belong in never-gated "info" members, not
 * here.
 */

#ifndef PIPELAYER_SIM_SERVING_HH_
#define PIPELAYER_SIM_SERVING_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "arch/pipeline.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "sim/arrival.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"

namespace pipelayer {
namespace sim {

/** Admission and coalescing policy knobs. */
struct ServingConfig
{
    /**
     * Pending requests the admission queue holds; an arrival that
     * finds the queue full is shed (backpressure, counted in the
     * report).  Requests leave the queue when their batch launches.
     */
    int64_t queue_capacity = 64;

    /**
     * Largest batch a launch may take.  0 (the default) resolves to
     * sweetSpotBatch(depth) at run time.
     */
    int64_t max_batch = 0;

    /**
     * Deadline: a batch launches no later than
     * oldest-pending-arrival + max_wait_cycles (earlier when it
     * fills to max_batch), so light load pays bounded latency
     * instead of waiting forever for a full batch.
     */
    int64_t max_wait_cycles = 32;

    /**
     * The batching sweet spot implied by (N/B)(2L+B+1): per-image
     * cost is 1 + (2L+1)/B cycles, so B = 2L+1 is the knee — the
     * point where batching overhead drops to one extra cycle per
     * image and further growth buys asymptotically nothing while
     * adding queueing delay.
     */
    static int64_t sweetSpotBatch(int64_t depth);

    /** Throws ConfigError on non-positive knobs. */
    void validate() const;

    /** Machine-readable form (max_batch as resolved by the run). */
    json::Value toJson() const;
};

/** Per-request outcome, emitted by pl_serve as one NDJSON line. */
struct CompletionRecord
{
    int64_t id = 0;             //!< request index in arrival order
    int64_t arrival_cycle = 0;
    bool admitted = false;      //!< false: shed at arrival (queue full)
    int64_t entry_cycle = 0;    //!< first pipeline cycle (admitted)
    int64_t completion_cycle = 0; //!< leaves the pipeline (admitted)
    int64_t latency_cycles = 0; //!< completion - arrival (admitted)
    int64_t batch_id = 0;       //!< launch this request rode (admitted)
    int64_t batch_size = 0;     //!< size of that launch (admitted)

    /** Machine-readable form (schema checked by tools/json_lint). */
    json::Value toJson() const;
};

/** Everything one serving run measured. */
struct ServingReport
{
    std::string network;
    ServingConfig config;       //!< max_batch resolved (never 0)
    int64_t depth = 0;          //!< pipeline depth L of the network

    // ---- Admission / backpressure ----------------------------------
    int64_t arrival_count = 0;
    int64_t admitted_count = 0;
    int64_t shed_count = 0;     //!< arrivals rejected at capacity
    int64_t peak_queue_depth = 0;
    double mean_queue_depth = 0.0; //!< depth seen by each arrival

    // ---- Coalescing ------------------------------------------------
    int64_t batch_count = 0;
    int64_t deadline_batches = 0; //!< launched partial, by deadline
    /** [size, count] pairs, ascending size, counts sum to batches. */
    std::vector<std::pair<int64_t, int64_t>> batch_size_hist;

    // ---- Latency (logical cycles; deterministic, gated) ------------
    int64_t p50_latency_cycles = 0;
    int64_t p95_latency_cycles = 0;
    int64_t p99_latency_cycles = 0;
    int64_t max_latency_cycles = 0;
    double mean_latency_cycles = 0.0;
    double mean_queue_wait_cycles = 0.0; //!< entry - arrival, mean

    // ---- Execution (the event-queue scheduler's view) --------------
    arch::ScheduleStats sched;  //!< utilization, hazards, buffers
    SimReport execution;        //!< timing/energy of the admitted run

    /** Per-request outcomes in arrival order (admitted and shed). */
    std::vector<CompletionRecord> completions;

    /**
     * Machine-readable form: admission/coalescing/latency tracks plus
     * the embedded "schedule" (ScheduleStats) and "execution"
     * (SimReport) subtrees.  Deterministic by contract — every field
     * is logical-cycle arithmetic or modelled seconds/joules — so
     * the whole tree is bench_compare-gatable.  Completion records
     * are not included; they stream separately as NDJSON.
     */
    json::Value toJson() const;

    /** Human-readable multi-line summary. */
    void print(std::ostream &os) const;
};

/**
 * The serving front end: one network fed by a request stream.
 * Construct once per network, then run any number of traces through
 * it; each run() schedules its admitted requests once and maps the
 * network once, to price that schedule.
 */
class ServingSim
{
  public:
    /**
     * Use the balanced default granularity.  Both constructors throw
     * ConfigError when @p params do not validate
     * (reram::DeviceParams::validate()).
     */
    ServingSim(const workloads::NetworkSpec &spec,
               const reram::DeviceParams &params);

    /** Use an explicit granularity configuration. */
    ServingSim(const workloads::NetworkSpec &spec,
               const reram::DeviceParams &params,
               const arch::GranularityConfig &granularity);

    /** Pipeline depth L of the mapped network. */
    int64_t depth() const;

    /**
     * Serve one arrival trace under @p config: admit, coalesce,
     * execute, measure.  Throws ConfigError on bad configuration.
     *
     * @p recorder (optional) receives the request-lifecycle trace
     * alongside the pipeline timeline (docs/observability.md,
     * "Serving telemetry"): "serving.arrivals" / "serving.batches"
     * slice tracks, one async span per request
     * (arrival -> admitted/shed -> queued -> exec -> complete), a
     * flow arrow from each admitted request's arrival slice to its
     * slot in the carrying batch slice, and the serving.queue_depth /
     * serving.in_flight / serving.shed_total counter tracks.
     *
     * @p sampler (optional) is fed the windowed time series: the
     * serving.* channels (arrival/admission/shed/launch/completion
     * counters, queue-depth and in-flight gauges, latency, batch-size
     * and queue-wait distributions) plus the scheduler's sched.*
     * counters, then finish()ed over the run with the "serving" stat
     * group attached — the returned sampler is ready to write.  Pass
     * a fresh sampler per call (channel registration is once-only).
     *
     * Both hooks are pure observers in integer cycle arithmetic: the
     * report is unchanged and the artifacts are byte-deterministic at
     * any thread count.
     */
    ServingReport run(const ArrivalTrace &trace,
                      const ServingConfig &config,
                      trace::TraceRecorder *recorder = nullptr,
                      metrics::Sampler *sampler = nullptr) const;

  private:
    workloads::NetworkSpec spec_;
    Simulator simulator_;
};

} // namespace sim
} // namespace pipelayer

#endif // PIPELAYER_SIM_SERVING_HH_
