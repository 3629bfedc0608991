#include "sim/serving.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "common/isa.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/prof.hh"

namespace pipelayer {
namespace sim {

// Percentiles use metrics::percentile — the one nearest-rank integer
// rule — so the report and the metrics stream agree byte-for-byte.
using metrics::percentile;

int64_t
ServingConfig::sweetSpotBatch(int64_t depth)
{
    PL_ASSERT(depth > 0, "sweetSpotBatch needs a mapped network");
    return 2 * depth + 1;
}

void
ServingConfig::validate() const
{
    if (queue_capacity < 1) {
        throw ConfigError(
            "ServingConfig: queue_capacity must be at least 1, got " +
            std::to_string(queue_capacity));
    }
    if (max_batch < 0) {
        throw ConfigError(
            "ServingConfig: max_batch must be non-negative "
            "(0 means the sweet spot), got " +
            std::to_string(max_batch));
    }
    if (max_wait_cycles < 0) {
        throw ConfigError(
            "ServingConfig: max_wait_cycles must be non-negative, "
            "got " + std::to_string(max_wait_cycles));
    }
}

json::Value
ServingConfig::toJson() const
{
    json::Value v = json::Value::object();
    v["queue_capacity"] = queue_capacity;
    v["max_batch"] = max_batch;
    v["max_wait_cycles"] = max_wait_cycles;
    return v;
}

json::Value
CompletionRecord::toJson() const
{
    json::Value v = json::Value::object();
    v["id"] = id;
    v["arrival_cycle"] = arrival_cycle;
    v["admitted"] = json::Value(admitted);
    if (admitted) {
        v["entry_cycle"] = entry_cycle;
        v["completion_cycle"] = completion_cycle;
        v["latency_cycles"] = latency_cycles;
        v["batch_id"] = batch_id;
        v["batch_size"] = batch_size;
    }
    return v;
}

json::Value
ServingReport::toJson() const
{
    json::Value v = json::Value::object();
    v["serve_version"] = json::Value(int64_t{1});
    v["network"] = json::Value(network);
    v["depth"] = depth;
    v["config"] = config.toJson();
    v["arrival_count"] = arrival_count;
    v["admitted_count"] = admitted_count;
    v["shed_count"] = shed_count;
    v["peak_queue_depth"] = peak_queue_depth;
    v["mean_queue_depth"] = mean_queue_depth;
    v["batch_count"] = batch_count;
    v["deadline_batches"] = deadline_batches;
    json::Value hist = json::Value::array();
    for (const auto &bucket : batch_size_hist) {
        json::Value pair = json::Value::array();
        pair.push(bucket.first);
        pair.push(bucket.second);
        hist.push(std::move(pair));
    }
    v["batch_size_hist"] = std::move(hist);
    v["p50_latency_cycles"] = p50_latency_cycles;
    v["p95_latency_cycles"] = p95_latency_cycles;
    v["p99_latency_cycles"] = p99_latency_cycles;
    v["max_latency_cycles"] = max_latency_cycles;
    v["mean_latency_cycles"] = mean_latency_cycles;
    v["mean_queue_wait_cycles"] = mean_queue_wait_cycles;
    v["schedule"] = sched.toJson();
    v["execution"] = execution.toJson();
    return v;
}

void
ServingReport::print(std::ostream &os) const
{
    os << "=== Serving: " << network << " (depth " << depth << ") ===\n"
       << "  queue capacity " << config.queue_capacity << ", max batch "
       << config.max_batch << ", max wait " << config.max_wait_cycles
       << " cycles\n"
       << "  arrivals:  " << arrival_count << " (" << admitted_count
       << " admitted, " << shed_count << " shed)\n"
       << "  queue:     peak depth " << peak_queue_depth << ", mean "
       << mean_queue_depth << "\n"
       << "  batches:   " << batch_count << " launched, "
       << deadline_batches << " by deadline\n"
       << "  latency:   p50 " << p50_latency_cycles << ", p95 "
       << p95_latency_cycles << ", p99 " << p99_latency_cycles
       << ", max " << max_latency_cycles << " cycles\n"
       << "  execution: " << sched.total_cycles
       << " logical cycles, utilization " << sched.stage_utilization
       << "\n";
}

namespace {

/** One batch launch, as the telemetry emitters need it. */
struct BatchRec
{
    int64_t launch;
    int64_t size;
};

/**
 * In-flight level over time: +1 at each pipeline entry, -1 at each
 * completion, prefix-summed into one (cycle, level) point per cycle.
 */
std::vector<std::pair<int64_t, int64_t>>
inFlightSeries(const ServingReport &report)
{
    std::map<int64_t, int64_t> delta{{0, 0}};
    for (const CompletionRecord &rec : report.completions) {
        if (!rec.admitted)
            continue;
        delta[rec.entry_cycle] += 1;
        delta[rec.completion_cycle] -= 1;
    }
    std::vector<std::pair<int64_t, int64_t>> points;
    points.reserve(delta.size());
    int64_t level = 0;
    for (const auto &d : delta) {
        level += d.second;
        points.emplace_back(d.first, level);
    }
    return points;
}

/** The request-lifecycle trace (serving.hh run() doc). */
void
emitTrace(const ServingReport &report,
          const std::vector<BatchRec> &batches,
          const std::vector<std::pair<int64_t, int64_t>> &depth_points,
          const std::vector<std::pair<int64_t, int64_t>> &shed_points,
          int64_t arrivals_track, int64_t batches_track,
          trace::TraceRecorder &recorder)
{
    for (const CompletionRecord &rec : report.completions) {
        const std::string name = "req" + std::to_string(rec.id);
        recorder.complete(arrivals_track, name,
                          rec.admitted ? "arrival" : "shed",
                          rec.arrival_cycle, 1, rec.id);
        recorder.asyncBegin(name, "request", rec.id, rec.arrival_cycle);
        if (!rec.admitted) {
            recorder.asyncInstant("shed", "request", rec.id,
                                  rec.arrival_cycle);
            recorder.asyncEnd(name, "request", rec.id,
                              rec.arrival_cycle);
            continue;
        }
        recorder.asyncInstant("admitted", "request", rec.id,
                              rec.arrival_cycle);
        recorder.asyncBegin("queued", "request", rec.id,
                            rec.arrival_cycle);
        recorder.asyncEnd("queued", "request", rec.id, rec.entry_cycle);
        recorder.asyncBegin("exec", "request", rec.id, rec.entry_cycle);
        recorder.asyncEnd("exec", "request", rec.id,
                          rec.completion_cycle);
        recorder.asyncEnd(name, "request", rec.id,
                          rec.completion_cycle);
        // Flow arrow: the arrival slice -> the request's slot in its
        // batch slice (entry_cycle lies in [launch, launch + size)).
        recorder.flowStart(name, "req", rec.id, arrivals_track,
                           rec.arrival_cycle);
        recorder.flowFinish(name, "req", rec.id, batches_track,
                            rec.entry_cycle);
    }
    for (size_t i = 0; i < batches.size(); ++i) {
        recorder.complete(batches_track, "batch" + std::to_string(i),
                          "batch", batches[i].launch,
                          batches[i].size);
    }
    const auto emit_counter =
        [&recorder](const char *name,
                    const std::vector<std::pair<int64_t, int64_t>>
                        &points) {
            for (size_t i = 0; i < points.size(); ++i) {
                // One point per cycle: the last value wins.
                if (i + 1 < points.size() &&
                    points[i + 1].first == points[i].first)
                    continue;
                recorder.counter(name, points[i].first,
                                 points[i].second);
            }
        };
    emit_counter("serving.queue_depth", depth_points);
    emit_counter("serving.in_flight", inFlightSeries(report));
    emit_counter("serving.shed_total", shed_points);
}

/** The windowed time series (serving.hh run() doc). */
void
feedSampler(const ServingReport &report,
            const std::vector<BatchRec> &batches,
            const std::vector<std::pair<int64_t, int64_t>> &depth_points,
            metrics::Sampler &sampler)
{
    const int arrivals_ch = sampler.counter("serving.arrivals");
    const int admitted_ch = sampler.counter("serving.admitted");
    const int shed_ch = sampler.counter("serving.shed");
    const int launches_ch = sampler.counter("serving.launches");
    const int completions_ch = sampler.counter("serving.completions");
    const int depth_ch = sampler.gauge("serving.queue_depth");
    const int inflight_ch = sampler.gauge("serving.in_flight");
    const int latency_ch =
        sampler.distribution("serving.latency_cycles");
    const int batch_ch = sampler.distribution("serving.batch_size");
    const int wait_ch =
        sampler.distribution("serving.queue_wait_cycles");

    for (const CompletionRecord &rec : report.completions) {
        sampler.add(arrivals_ch, rec.arrival_cycle);
        if (!rec.admitted) {
            sampler.add(shed_ch, rec.arrival_cycle);
            continue;
        }
        sampler.add(admitted_ch, rec.arrival_cycle);
        sampler.add(completions_ch, rec.completion_cycle);
        sampler.observe(latency_ch, rec.completion_cycle,
                        rec.latency_cycles);
        sampler.observe(wait_ch, rec.entry_cycle,
                        rec.entry_cycle - rec.arrival_cycle);
    }
    for (const BatchRec &batch : batches) {
        sampler.add(launches_ch, batch.launch);
        sampler.observe(batch_ch, batch.launch, batch.size);
    }
    for (const auto &point : depth_points)
        sampler.set(depth_ch, point.first, point.second);
    for (const auto &point : inFlightSeries(report))
        sampler.set(inflight_ch, point.first, point.second);

    // Snapshot the summary's top-level numbers into the trailer, so
    // one stream carries both the windows and the totals they must
    // reconcile with; the dispatched SIMD target is the only
    // host-dependent entry (and the same at any PL_THREADS).
    const json::Value summary = report.toJson();
    json::Value stats = json::Value::object();
    for (const auto &[key, value] : summary.members()) {
        if (value.isNumber() && key != "serve_version" && key != "depth")
            stats["serving." + key] = value;
    }
    stats["serving.host.isa_level"] = static_cast<int>(isa::active());
    sampler.attachStats(std::move(stats));
    sampler.finish(report.sched.total_cycles);
}

} // namespace

ServingSim::ServingSim(const workloads::NetworkSpec &spec,
                       const reram::DeviceParams &params)
    : spec_(spec), simulator_(spec, params)
{
}

ServingSim::ServingSim(const workloads::NetworkSpec &spec,
                       const reram::DeviceParams &params,
                       const arch::GranularityConfig &granularity)
    : spec_(spec), simulator_(spec, params, granularity)
{
}

int64_t
ServingSim::depth() const
{
    return spec_.pipelineDepth();
}

ServingReport
ServingSim::run(const ArrivalTrace &trace,
                const ServingConfig &config,
                trace::TraceRecorder *recorder,
                metrics::Sampler *sampler) const
{
    PL_PROF_SCOPE("serving.run");
    config.validate();
    trace.validate();

    // Serving tracks go first so Perfetto sorts them above the
    // pipeline unit rows (declaration order = sort index).
    int64_t arrivals_track = -1;
    int64_t batches_track = -1;
    if (recorder) {
        arrivals_track = recorder->addTrack("serving.arrivals");
        batches_track = recorder->addTrack("serving.batches");
    }

    ServingReport report;
    report.network = spec_.name;
    report.depth = depth();
    report.config = config;
    if (report.config.max_batch == 0)
        report.config.max_batch = ServingConfig::sweetSpotBatch(depth());
    const int64_t max_batch = report.config.max_batch;
    const int64_t max_wait = report.config.max_wait_cycles;
    const int64_t capacity = report.config.queue_capacity;

    const std::vector<int64_t> &arrivals = trace.cycles();
    const int64_t n = static_cast<int64_t>(arrivals.size());
    report.arrival_count = n;
    report.completions.resize(static_cast<size_t>(n));

    // ---- Admission + coalescing -----------------------------------
    // The policy is pure integer arithmetic over the trace: arrivals
    // and launches are interleaved in cycle order, with an arrival in
    // the same cycle as a launch observing the pre-launch queue (the
    // deterministic tie-break; under overload that is the
    // conservative, shedding-prone choice).
    struct Pending
    {
        int64_t id;
        int64_t arrival;
    };
    std::deque<Pending> queue;
    size_t next = 0;             // next trace index to ingest
    int64_t admission_free = 0;  // first cycle the pipeline input is free
    int64_t depth_sum = 0;       // queue depth summed over arrivals
    std::map<int64_t, int64_t> hist;
    std::vector<int64_t> entry_cycles;
    entry_cycles.reserve(arrivals.size());

    // Telemetry collected along the policy loop, emitted after it:
    // per-launch records and the (cycle, value) counter points.  The
    // loop appends in cycle order, so the point series are sorted.
    std::vector<BatchRec> batches;
    std::vector<std::pair<int64_t, int64_t>> depth_points{{0, 0}};
    std::vector<std::pair<int64_t, int64_t>> shed_points{{0, 0}};

    const auto ingest = [&](size_t i) {
        PL_PROF_SCOPE("serving.admit");
        CompletionRecord &rec = report.completions[i];
        rec.id = static_cast<int64_t>(i);
        rec.arrival_cycle = arrivals[i];
        const int64_t found = static_cast<int64_t>(queue.size());
        depth_sum += found;
        if (found >= capacity) {
            rec.admitted = false;
            report.shed_count++;
            shed_points.emplace_back(rec.arrival_cycle,
                                     report.shed_count);
            return;
        }
        rec.admitted = true;
        queue.push_back({rec.id, rec.arrival_cycle});
        report.peak_queue_depth =
            std::max(report.peak_queue_depth, found + 1);
        depth_points.emplace_back(rec.arrival_cycle,
                                  static_cast<int64_t>(queue.size()));
    };

    while (next < arrivals.size() || !queue.empty()) {
        if (queue.empty()) {
            ingest(next++);
            continue;
        }
        // Launch cycle: when the batch fills to max_batch, or the
        // oldest pending request hits its deadline — whichever comes
        // first — but never before the pipeline input is free.
        // Ingesting arrivals can only pull the trigger earlier (they
        // fill the batch sooner; the oldest request is fixed), so
        // iterate until no arrival precedes the candidate launch.
        int64_t launch;
        {
            PL_PROF_SCOPE("serving.coalesce");
            for (;;) {
                int64_t trigger = queue.front().arrival + max_wait;
                if (static_cast<int64_t>(queue.size()) >= max_batch) {
                    trigger = std::min(
                        trigger,
                        queue[static_cast<size_t>(max_batch - 1)]
                            .arrival);
                }
                launch = std::max(admission_free, trigger);
                if (next < arrivals.size() && arrivals[next] <= launch)
                    ingest(next++);
                else
                    break;
            }
        }
        PL_PROF_SCOPE("serving.launch");
        const int64_t b = std::min<int64_t>(
            static_cast<int64_t>(queue.size()), max_batch);
        for (int64_t j = 0; j < b; ++j) {
            const Pending p = queue.front();
            queue.pop_front();
            CompletionRecord &rec =
                report.completions[static_cast<size_t>(p.id)];
            rec.entry_cycle = launch + j;
            rec.completion_cycle = rec.entry_cycle + report.depth;
            rec.latency_cycles = rec.completion_cycle - rec.arrival_cycle;
            rec.batch_id = report.batch_count;
            rec.batch_size = b;
            entry_cycles.push_back(rec.entry_cycle);
        }
        report.batch_count++;
        if (b < max_batch)
            report.deadline_batches++;
        hist[b]++;
        admission_free = launch + b;
        batches.push_back({launch, b});
        depth_points.emplace_back(launch,
                                  static_cast<int64_t>(queue.size()));
    }

    report.admitted_count = static_cast<int64_t>(entry_cycles.size());
    report.mean_queue_depth =
        n > 0 ? static_cast<double>(depth_sum) / static_cast<double>(n)
              : 0.0;
    for (const auto &bucket : hist)
        report.batch_size_hist.push_back(bucket);

    // ---- Latency distribution -------------------------------------
    std::vector<int64_t> latencies;
    latencies.reserve(entry_cycles.size());
    int64_t latency_sum = 0;
    int64_t wait_sum = 0;
    for (const CompletionRecord &rec : report.completions) {
        if (!rec.admitted)
            continue;
        latencies.push_back(rec.latency_cycles);
        latency_sum += rec.latency_cycles;
        wait_sum += rec.entry_cycle - rec.arrival_cycle;
    }
    std::sort(latencies.begin(), latencies.end());
    report.p50_latency_cycles = percentile(latencies, 50);
    report.p95_latency_cycles = percentile(latencies, 95);
    report.p99_latency_cycles = percentile(latencies, 99);
    if (!latencies.empty()) {
        report.max_latency_cycles = latencies.back();
        const double m = static_cast<double>(latencies.size());
        report.mean_latency_cycles =
            static_cast<double>(latency_sum) / m;
        report.mean_queue_wait_cycles =
            static_cast<double>(wait_sum) / m;
    }

    // ---- Execution: replay the admitted entries through the
    // pipeline, with the observers attached, then price that one
    // schedule.  Entry cycles are strictly increasing by construction
    // (consecutive launches are separated by their batch sizes), so
    // the schedule is hazard-free: any overload shows up here as shed
    // requests, not as pipeline conflicts.
    if (report.admitted_count > 0) {
        Job job;
        job.network = spec_.name;
        job.phase = Phase::Testing;
        job.pipelined = true;
        job.batch_size = max_batch;
        job.num_images = report.admitted_count;
        job.arrivals = ArrivalTrace::replay(std::move(entry_cycles));
        arch::PipelineScheduler scheduler(depth(), job.schedule());
        scheduler.setTrace(recorder);
        scheduler.setMetrics(sampler);
        report.sched = scheduler.run();
        report.execution = simulator_.price(job, report.sched);
    }

    if (recorder)
        emitTrace(report, batches, depth_points, shed_points,
                  arrivals_track, batches_track, *recorder);
    if (sampler)
        feedSampler(report, batches, depth_points, *sampler);
    return report;
}

} // namespace sim
} // namespace pipelayer
