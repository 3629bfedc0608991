#include "arch/pipeline.hh"

#include <algorithm>
#include <map>

#include "common/event_queue.hh"
#include "common/logging.hh"

namespace pipelayer {
namespace arch {

namespace {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

void
ScheduleStats::addStats(stats::StatGroup &group) const
{
    auto value = [](double v) {
        return [v] { return v; };
    };
    group.addFormula("total_cycles",
                     value(static_cast<double>(total_cycles)),
                     "logical cycles for the whole schedule");
    group.addFormula("forward_ops",
                     value(static_cast<double>(forward_ops)),
                     "stage-forward activations");
    group.addFormula("error_ops",
                     value(static_cast<double>(error_ops)),
                     "error-backward activations");
    group.addFormula("derivative_ops",
                     value(static_cast<double>(derivative_ops)),
                     "derivative (dW) computations");
    group.addFormula("update_cycles",
                     value(static_cast<double>(update_cycles)),
                     "weight-update cycles");
    group.addFormula("stage_utilization", value(stage_utilization),
                     "busy stage-slots / (units x cycles)");
    group.addFormula("structural_hazards",
                     value(static_cast<double>(structural_hazards)),
                     "same-unit double-claims detected");
    group.addFormula("buffer_violations",
                     value(static_cast<double>(buffer_violations)),
                     "buffer overwrite/eviction violations");
    for (size_t s = 0; s < per_stage_ops.size(); ++s) {
        const std::string stage = "stage" + std::to_string(s);
        group.addFormula(stage + ".ops",
                         value(static_cast<double>(per_stage_ops[s])),
                         "busy unit-slots at this array stage");
        const double occupancy = total_cycles > 0
            ? static_cast<double>(per_stage_ops[s]) /
                  static_cast<double>(total_cycles)
            : 0.0;
        group.addFormula(stage + ".occupancy", value(occupancy),
                         "busy fraction of the run at this stage");
    }
    for (size_t j = 0; j < peak_buffer_entries.size(); ++j) {
        group.addFormula(
            "buffer.d" + std::to_string(j) + ".peak_live",
            value(static_cast<double>(peak_buffer_entries[j])),
            "live-entry high-water mark of this stage buffer");
    }
}

json::Value
ScheduleStats::toJson() const
{
    json::Value v = json::Value::object();
    v["total_cycles"] = total_cycles;
    v["forward_ops"] = forward_ops;
    v["error_ops"] = error_ops;
    v["derivative_ops"] = derivative_ops;
    v["update_cycles"] = update_cycles;
    v["stage_utilization"] = stage_utilization;
    v["structural_hazards"] = structural_hazards;
    v["buffer_violations"] = buffer_violations;
    json::Value peaks = json::Value::array();
    for (const int64_t peak : peak_buffer_entries)
        peaks.push(peak);
    v["peak_buffer_entries"] = std::move(peaks);
    json::Value per_stage = json::Value::array();
    for (const int64_t ops : per_stage_ops)
        per_stage.push(ops);
    v["per_stage_ops"] = std::move(per_stage);
    return v;
}

void
ScheduleConfig::validate() const
{
    if (batch_size <= 0) {
        throw ConfigError(
            "ScheduleConfig: batch_size must be positive, got " +
            std::to_string(batch_size));
    }
    if (num_images < 0) {
        throw ConfigError(
            "ScheduleConfig: num_images must be non-negative, got " +
            std::to_string(num_images));
    }
    if (!arrival_cycles.empty()) {
        if (training || !pipelined) {
            throw ConfigError(
                "ScheduleConfig: arrival_cycles is a pipelined-testing "
                "(serving) knob; training and non-pipelined schedules "
                "pace images themselves");
        }
        if (static_cast<int64_t>(arrival_cycles.size()) != num_images) {
            throw ConfigError(
                "ScheduleConfig: got " +
                std::to_string(arrival_cycles.size()) +
                " arrival cycles for " + std::to_string(num_images) +
                " images");
        }
        int64_t prev = 0;
        for (const int64_t cycle : arrival_cycles) {
            if (cycle < 0) {
                throw ConfigError(
                    "ScheduleConfig: arrival cycles must be "
                    "non-negative, got " + std::to_string(cycle));
            }
            if (cycle < prev) {
                throw ConfigError(
                    "ScheduleConfig: arrival cycles must be "
                    "non-decreasing (" + std::to_string(cycle) +
                    " after " + std::to_string(prev) + ")");
            }
            prev = cycle;
        }
    }
}

PipelineScheduler::PipelineScheduler(int64_t depth,
                                     const ScheduleConfig &config,
                                     int64_t buffer_slack)
    : depth_(depth), config_(config), buffer_slack_(buffer_slack)
{
    if (depth < 1) {
        throw ConfigError(
            "PipelineScheduler: depth must be positive, got " +
            std::to_string(depth));
    }
    config.validate();
}

void
PipelineScheduler::setTrace(trace::TraceRecorder *recorder)
{
    trace_ = recorder;
    trace_offset_ = 0;
    if (!recorder)
        return;
    // Declare one track per unit row, in renderTimeline() order.
    const int64_t depth = depth_;
    trace_base_ = recorder->trackCount();
    for (int64_t s = 0; s < depth; ++s)
        recorder->addTrack("A" + std::to_string(s + 1));
    if (config_.training) {
        recorder->addTrack("ErrL");
        for (int64_t s = depth - 1; s >= 1; --s)
            recorder->addTrack("A" + std::to_string(s + 1) + "2");
        for (int64_t s = depth - 1; s >= 0; --s)
            recorder->addTrack("dW" + std::to_string(s + 1));
        recorder->addTrack("Upd");
    }
}

void
PipelineScheduler::continueTrace(trace::TraceRecorder *recorder,
                                 int64_t first_track,
                                 int64_t cycle_offset)
{
    trace_ = recorder;
    trace_base_ = first_track;
    trace_offset_ = cycle_offset;
}

void
PipelineScheduler::setMetrics(metrics::Sampler *sampler)
{
    metrics_ = sampler;
    if (!sampler)
        return;
    metric_forward_ = sampler->counter("sched.forward_ops");
    metric_error_ = sampler->counter("sched.error_ops");
    metric_derivative_ = sampler->counter("sched.derivative_ops");
    metric_update_ = sampler->counter("sched.update_cycles");
}

int64_t
PipelineScheduler::traceTrack(Op::Kind kind, int64_t stage) const
{
    const int64_t depth = depth_;
    switch (kind) {
      case Op::Kind::Forward:
        return trace_base_ + stage;
      case Op::Kind::ErrorSeed:
        return trace_base_ + depth;
      case Op::Kind::ErrorBack:
        // Rows A_L2 .. A_22 follow ErrL, highest stage first.
        return trace_base_ + depth + 1 + (depth - 1 - stage);
      case Op::Kind::Derivative:
        // Rows dW_L .. dW_1 follow the error rows.
        return trace_base_ + 2 * depth + (depth - 1 - stage);
      case Op::Kind::Update:
        return trace_base_ + 3 * depth;
      case Op::Kind::InputWrite:
        break; // input writes occupy no unit row
    }
    panic("unreachable trace track kind");
}

int64_t
PipelineScheduler::analyticTrainingCycles(int64_t depth, int64_t n,
                                          int64_t b, bool pipelined)
{
    if (b <= 0) {
        throw ConfigError(
            "analyticTrainingCycles: batch size must be positive, "
            "got " + std::to_string(b));
    }
    if (n < 0) {
        throw ConfigError(
            "analyticTrainingCycles: image count must be "
            "non-negative, got " + std::to_string(n));
    }
    if (n == 0)
        return 0; // empty schedule: no compute, no update cycles
    const int64_t batches = ceilDiv(n, b);
    if (pipelined) {
        // (N/B)(2L + B + 1) when B | N; generalised to partial batches.
        return n + batches * (2 * depth + 1);
    }
    return n * (2 * depth + 1) + batches;
}

int64_t
PipelineScheduler::analyticTestingCycles(int64_t depth, int64_t n,
                                         bool pipelined)
{
    if (n < 0) {
        throw ConfigError(
            "analyticTestingCycles: image count must be "
            "non-negative, got " + std::to_string(n));
    }
    if (n == 0)
        return 0; // N + L - 1 only holds once a first image exists
    return pipelined ? n + depth - 1 : n * depth;
}

int64_t
PipelineScheduler::scheduleSpan() const
{
    const int64_t depth = depth_;
    const int64_t n = config_.num_images;
    // Serving arrivals stretch the pipelined testing schedule: the
    // closed form N + L - 1 assumes back-to-back images.
    if (!config_.training && config_.pipelined && n > 0) {
        const int64_t last = config_.arrival_cycles.empty()
            ? n - 1
            : config_.arrival_cycles.back();
        return last + depth;
    }
    return config_.training
        ? analyticTrainingCycles(depth, n, config_.batch_size,
                                 config_.pipelined)
        : analyticTestingCycles(depth, n, config_.pipelined);
}

void
PipelineScheduler::scheduleImage(int64_t image, int64_t t0,
                                 const OpEmit &emit) const
{
    const int64_t depth = depth_;

    for (int64_t s = 0; s < depth; ++s)
        emit(t0 + s + 1, {Op::Kind::Forward, image, s});

    if (!config_.training)
        return;

    emit(t0 + depth + 1, {Op::Kind::ErrorSeed, image, depth - 1});
    for (int64_t s = depth - 1; s >= 0; --s) {
        const int64_t cycle = t0 + 2 * depth + 1 - s;
        if (s >= 1)
            emit(cycle, {Op::Kind::ErrorBack, image, s});
        emit(cycle, {Op::Kind::Derivative, image, s});
    }
}

int64_t
PipelineScheduler::buildSchedule(const OpEmit &emit,
                                 std::vector<int64_t> &entry_cycle) const
{
    const int64_t depth = depth_;
    const int64_t n = config_.num_images;
    const int64_t b = config_.batch_size;

    const int64_t horizon = 2 + scheduleSpan();
    // The closed forms bound the schedule; emitting past this window
    // means the formulas and the schedule generator disagree.
    const int64_t bound = horizon + 2 * depth + 3;
    const OpEmit add = [&](int64_t cycle, const Op &op) {
        PL_ASSERT(cycle >= 0 && cycle <= bound,
                  "op scheduled at cycle %lld beyond horizon %lld",
                  (long long)cycle, (long long)(bound + 1));
        emit(cycle, op);
    };
    entry_cycle.assign(static_cast<size_t>(n), 0);

    int64_t last_cycle = 0;
    if (config_.training) {
        int64_t base = 0;
        int64_t image = 0;
        while (image < n) {
            const int64_t batch = std::min<int64_t>(b, n - image);
            for (int64_t i = 0; i < batch; ++i) {
                const int64_t t0 = config_.pipelined
                    ? base + i
                    : base + i * (2 * depth + 1);
                entry_cycle[static_cast<size_t>(image + i)] = t0;
                // Image entry: d_0 is staged at t0, one cycle before
                // the image's first compute cycle.
                add(t0, {Op::Kind::InputWrite, image + i, -1});
                scheduleImage(image + i, t0, add);
            }
            // Weight update one cycle after the last image drains.
            const int64_t drain = config_.pipelined
                ? base + (batch - 1) + 2 * depth + 1
                : base + batch * (2 * depth + 1);
            const int64_t update = drain + 1;
            add(update, {Op::Kind::Update, -1, -1});
            base = update; // next batch enters after the update
            image += batch;
            last_cycle = update;
        }
    } else {
        for (int64_t i = 0; i < n; ++i) {
            const int64_t t0 = config_.pipelined
                ? (config_.arrival_cycles.empty()
                       ? i
                       : config_.arrival_cycles[static_cast<size_t>(i)])
                : i * depth;
            entry_cycle[static_cast<size_t>(i)] = t0;
            add(t0, {Op::Kind::InputWrite, i, -1});
            scheduleImage(i, t0, add);
            last_cycle = t0 + depth;
        }
    }
    return last_cycle;
}

/** Buffers, counters and scratch shared by both run paths. */
struct PipelineScheduler::RunState
{
    std::vector<CircularBuffer> d_buffers;     //!< d_0..d_L
    std::vector<CircularBuffer> delta_buffers; //!< δ_1..δ_L
    ScheduleStats stats;
    std::map<std::pair<int, int64_t>, int64_t> unit_claims;

    RunState(int64_t depth, int64_t buffer_slack)
    {
        for (int64_t j = 0; j <= depth; ++j) {
            const int64_t entries = std::max<int64_t>(
                1, 2 * (depth - j) + 1 + buffer_slack);
            d_buffers.emplace_back("d" + std::to_string(j), entries);
        }
        for (int64_t j = 0; j < depth; ++j) {
            const int64_t entries =
                std::max<int64_t>(1, 1 + buffer_slack);
            delta_buffers.emplace_back("delta" + std::to_string(j + 1),
                                       entries);
        }
        stats.per_stage_ops.assign(static_cast<size_t>(depth), 0);
    }
};

void
PipelineScheduler::executeCycle(int64_t cycle, std::span<const Op> ops,
                                RunState &state)
{
    const int64_t depth = depth_;
    ScheduleStats &stats = state.stats;
    auto &d_buffers = state.d_buffers;
    auto &delta_buffers = state.delta_buffers;

    // Structural-hazard check: one claim per (unit kind, stage).
    // Input writes go to the memory subarrays, not a compute unit.
    state.unit_claims.clear();
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::InputWrite)
            continue;
        const auto key = std::make_pair(static_cast<int>(op.kind),
                                        op.stage);
        if (++state.unit_claims[key] > 1)
            ++stats.structural_hazards;
        if (op.stage >= 0)
            ++stats.per_stage_ops[static_cast<size_t>(op.stage)];
    }

    // Pipeline event trace: one slice per occupied unit-cycle
    // (ts 0 = the first compute cycle, so the trace spans exactly
    // total_cycles logical cycles).
    if (trace_) {
        for (const Op &op : ops) {
            const char *cat = "";
            switch (op.kind) {
              case Op::Kind::Forward:    cat = "forward"; break;
              case Op::Kind::ErrorSeed:  cat = "error_seed"; break;
              case Op::Kind::ErrorBack:  cat = "error_back"; break;
              case Op::Kind::Derivative: cat = "derivative"; break;
              case Op::Kind::Update:     cat = "update"; break;
              case Op::Kind::InputWrite: continue; // no unit row
            }
            const std::string name = op.image >= 0
                ? "img" + std::to_string(op.image)
                : std::string("update");
            trace_->complete(traceTrack(op.kind, op.stage), name,
                             cat, trace_offset_ + cycle - 1, 1,
                             op.image);
        }
    }

    // Windowed metrics: op deltas for this cycle, on the trace
    // timeline (ts 0 = the first compute cycle).
    if (metrics_) {
        int64_t fwd = 0, err = 0, der = 0, upd = 0;
        for (const Op &op : ops) {
            switch (op.kind) {
              case Op::Kind::Forward:    ++fwd; break;
              case Op::Kind::ErrorSeed:
              case Op::Kind::ErrorBack:  ++err; break;
              case Op::Kind::Derivative: ++der; break;
              case Op::Kind::Update:     ++upd; break;
              case Op::Kind::InputWrite: break;
            }
        }
        const int64_t ts = std::max<int64_t>(0, cycle - 1);
        if (fwd > 0)
            metrics_->add(metric_forward_, ts, fwd);
        if (err > 0)
            metrics_->add(metric_error_, ts, err);
        if (der > 0)
            metrics_->add(metric_derivative_, ts, der);
        if (upd > 0)
            metrics_->add(metric_update_, ts, upd);
    }

    // Phase 1: non-final reads.
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::Kind::Forward:
            // Training keeps d for the derivative pass, so the
            // forward read is not the last use; in testing the
            // read is final (phase 2).
            if (config_.training) {
                d_buffers[static_cast<size_t>(op.stage)].read(
                    op.image, /*final_read=*/false);
            }
            break;
          case Op::Kind::ErrorBack:
            delta_buffers[static_cast<size_t>(op.stage)].read(
                op.image, /*final_read=*/false);
            break;
          default:
            break;
        }
    }

    // Phase 2: final reads.
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::Kind::Forward:
            if (!config_.training) {
                d_buffers[static_cast<size_t>(op.stage)].read(
                    op.image, /*final_read=*/true);
            }
            break;
          case Op::Kind::ErrorSeed:
            d_buffers[static_cast<size_t>(depth)].read(
                op.image, /*final_read=*/true);
            break;
          case Op::Kind::Derivative:
            d_buffers[static_cast<size_t>(op.stage)].read(
                op.image, /*final_read=*/true);
            delta_buffers[static_cast<size_t>(op.stage)].read(
                op.image, /*final_read=*/true);
            break;
          default:
            break;
        }
    }

    // Phase 3: writes.  Image-entry writes land first (they stage
    // d_0 for a compute cycle that has not started), then the ops'.
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::InputWrite)
            d_buffers[0].write(op.image);
    }
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::Kind::Forward:
            // In testing the last stage streams its result out via
            // the Connection unit instead of buffering it.
            if (config_.training || op.stage < depth - 1) {
                d_buffers[static_cast<size_t>(op.stage + 1)].write(
                    op.image);
            }
            ++stats.forward_ops;
            break;
          case Op::Kind::ErrorSeed:
            delta_buffers[static_cast<size_t>(depth - 1)].write(
                op.image);
            ++stats.error_ops;
            break;
          case Op::Kind::ErrorBack:
            delta_buffers[static_cast<size_t>(op.stage - 1)].write(
                op.image);
            ++stats.error_ops;
            break;
          case Op::Kind::Derivative:
            ++stats.derivative_ops;
            break;
          case Op::Kind::Update:
            ++stats.update_cycles;
            break;
          case Op::Kind::InputWrite:
            break; // handled in the first pass above
        }
    }
}

ScheduleStats
PipelineScheduler::finalizeStats(RunState &state,
                                 int64_t last_cycle) const
{
    const int64_t depth = depth_;
    ScheduleStats stats = std::move(state.stats);
    stats.total_cycles = last_cycle;

    // Occupancy: stage-op slots actually used over the run.  An
    // empty schedule (N = 0) has no cycles and zero occupancy.
    const double unit_count = static_cast<double>(
        config_.training ? 3 * depth + 1 : depth);
    const double busy = static_cast<double>(
        stats.forward_ops + stats.error_ops + stats.derivative_ops);
    stats.stage_utilization = stats.total_cycles > 0
        ? busy / (unit_count * static_cast<double>(stats.total_cycles))
        : 0.0;

    for (auto &buf : state.d_buffers) {
        stats.buffer_violations += buf.violations();
        stats.peak_buffer_entries.push_back(buf.peakLive());
    }
    for (auto &buf : state.delta_buffers)
        stats.buffer_violations += buf.violations();

    return stats;
}

ScheduleStats
PipelineScheduler::run(const Executor &execute)
{
    const int64_t depth = depth_;
    const int64_t n = config_.num_images;

    // Stage the whole schedule into the event queue: one event per
    // op plus one per image entry and per update cycle.
    events::EventQueue<Op> queue;
    const int64_t per_image = config_.training
        ? 3 * depth + 2   // input + L fwd + seed + (L-1) err + L dW
        : depth + 1;      // input + L fwd
    queue.reserve(static_cast<size_t>(
        n * per_image + ceilDiv(std::max<int64_t>(n, 1),
                                config_.batch_size)));
    std::vector<int64_t> entry_cycle;
    const int64_t last_cycle = buildSchedule(
        [&queue](int64_t cycle, const Op &op) {
            queue.schedule(cycle, op);
        },
        entry_cycle);

    // Drain: only cycles that carry events are visited, FIFO within
    // a cycle, so executeCycle() and @p execute see exactly the dense
    // walk's spans.
    RunState state(depth, buffer_slack_);
    std::vector<Op> span;
    span.reserve(static_cast<size_t>(3 * depth + 3));
    int64_t iters = 0;
    while (!queue.empty()) {
        const int64_t cycle = queue.nextCycle();
        span.clear();
        queue.popCycle(cycle, span);
        executeCycle(cycle, span, state);
        if (execute)
            execute(cycle, span);
        ++iters;
    }
    last_run_cycle_iters_ = iters;
    last_run_events_ = queue.scheduled();

    return finalizeStats(state, last_cycle);
}

ScheduleStats
PipelineScheduler::runReference()
{
    const int64_t depth = depth_;

    // Dense cycle table over the whole horizon, exactly like the
    // pre-event implementation: one op vector per cycle, idle or not.
    const int64_t horizon = 2 + scheduleSpan();
    std::vector<std::vector<Op>> by_cycle(
        static_cast<size_t>(horizon + 2 * depth + 4));
    std::vector<int64_t> entry_cycle;
    int64_t events = 0;
    const int64_t last_cycle = buildSchedule(
        [&by_cycle, &events](int64_t cycle, const Op &op) {
            by_cycle[static_cast<size_t>(cycle)].push_back(op);
            ++events;
        },
        entry_cycle);

    RunState state(depth, buffer_slack_);
    for (size_t cycle = 0; cycle < by_cycle.size(); ++cycle) {
        executeCycle(static_cast<int64_t>(cycle), by_cycle[cycle],
                     state);
    }
    last_run_cycle_iters_ = static_cast<int64_t>(by_cycle.size());
    last_run_events_ = events;

    return finalizeStats(state, last_cycle);
}

std::string
PipelineScheduler::renderTimeline(int64_t max_cycles)
{
    const int64_t depth = depth_;
    // Clipped dense grid: only the rendered window is materialised.
    std::vector<std::vector<Op>> grid(
        static_cast<size_t>(std::max<int64_t>(max_cycles, 0)) + 1);
    std::vector<int64_t> entry_cycle;
    const int64_t last_cycle = buildSchedule(
        [&grid, max_cycles](int64_t cycle, const Op &op) {
            if (op.kind != Op::Kind::InputWrite && cycle >= 0 &&
                cycle <= max_cycles)
                grid[static_cast<size_t>(cycle)].push_back(op);
        },
        entry_cycle);
    const int64_t cycles = std::min<int64_t>(last_cycle, max_cycles);

    // Unit rows: forward stages A1..AL, the error units (seed at the
    // top stage, A_l2 below it), the derivative units, and the update.
    struct UnitRow
    {
        std::string label;
        Op::Kind kind;
        int64_t stage;
    };
    std::vector<UnitRow> rows;
    for (int64_t s = 0; s < depth; ++s)
        rows.push_back({"A" + std::to_string(s + 1),
                        Op::Kind::Forward, s});
    if (config_.training) {
        rows.push_back({"ErrL", Op::Kind::ErrorSeed, depth - 1});
        for (int64_t s = depth - 1; s >= 1; --s)
            rows.push_back({"A" + std::to_string(s + 1) + "2",
                            Op::Kind::ErrorBack, s});
        for (int64_t s = depth - 1; s >= 0; --s)
            rows.push_back({"dW" + std::to_string(s + 1),
                            Op::Kind::Derivative, s});
        rows.push_back({"Upd", Op::Kind::Update, -1});
    }

    size_t label_width = 0;
    for (const auto &row : rows)
        label_width = std::max(label_width, row.label.size());

    auto image_glyph = [](int64_t image) {
        // Images cycle through 0-9 then a-z for readability.
        if (image < 0)
            return std::string("*");
        const int64_t m = image % 36;
        return std::string(
            1, m < 10 ? static_cast<char>('0' + m)
                      : static_cast<char>('a' + (m - 10)));
    };

    std::string out;
    // Header: cycle numbers mod 10.
    out.append(label_width + 2, ' ');
    for (int64_t c = 1; c <= cycles; ++c)
        out += std::to_string(c % 10);
    out += "\n";

    for (const auto &row : rows) {
        out += row.label;
        out.append(label_width - row.label.size() + 2, ' ');
        for (int64_t c = 1; c <= cycles; ++c) {
            std::string cell = ".";
            for (const auto &op : grid[static_cast<size_t>(c)]) {
                if (op.kind == row.kind && op.stage == row.stage) {
                    cell = image_glyph(op.image);
                    break;
                }
            }
            out += cell;
        }
        out += "\n";
    }
    if (last_cycle > cycles)
        out += "(clipped after " + std::to_string(cycles) + " of " +
               std::to_string(last_cycle) + " cycles)\n";
    return out;
}

} // namespace arch
} // namespace pipelayer
