#include "arch/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pipelayer {
namespace arch {

namespace {

/**
 * @p prefix followed by the decimal @p n, appended rather than
 * inserted: GCC 12's -O3 -Wrestrict misreads the inlined
 * "prefix" + std::to_string(n).
 */
std::string
numbered(const char *prefix, int64_t n)
{
    std::string label(prefix);
    label += std::to_string(n);
    return label;
}

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

using Op = PipelineScheduler::Op;

/**
 * Append an image's ops at @p offset cycles after its entry (paper
 * Fig. 3, Table 2): the input write at 0, forward at stage o - 1 for
 * 1 <= o <= L, the error seed at L + 1, and for L + 2 <= o <= 2L + 1
 * error backward then ∂W at stage s = 2L + 1 - o (stage 0 has no
 * error backward).
 */
void
appendOpsAt(int64_t depth, int64_t image, int64_t offset, int64_t cycle,
            std::vector<Op> &ops)
{
    if (offset == 0) {
        ops.push_back({Op::Kind::InputWrite, image, -1, cycle});
    } else if (offset <= depth) {
        ops.push_back({Op::Kind::Forward, image, offset - 1, cycle});
    } else if (offset == depth + 1) {
        ops.push_back({Op::Kind::ErrorSeed, image, depth - 1, cycle});
    } else {
        const int64_t stage = 2 * depth + 1 - offset;
        if (stage >= 1)
            ops.push_back({Op::Kind::ErrorBack, image, stage, cycle});
        ops.push_back({Op::Kind::Derivative, image, stage, cycle});
    }
}

} // namespace

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
            if (cycle < 0 || cycle > kMaxCycle) {
                throw ConfigError(
                    "ScheduleConfig: arrival cycles must lie in [0, "
                    "2^60], got " + std::to_string(cycle));
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
    // Declare one track per unit row, in unitRow() order.
    trace_base_ = recorder->trackCount();
    for (const std::string &label : unitLabels())
        recorder->addTrack(label);
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

std::vector<std::string>
PipelineScheduler::unitLabels() const
{
    // Forward stages A1..AL, the error units (seed at the top stage,
    // A_l2 below it), the derivative units, and the update.
    std::vector<std::string> labels;
    for (int64_t s = 0; s < depth_; ++s)
        labels.push_back(numbered("A", s + 1));
    if (config_.training) {
        labels.push_back("ErrL");
        for (int64_t s = depth_ - 1; s >= 1; --s)
            labels.push_back(numbered("A", s + 1) + "2");
        for (int64_t s = depth_ - 1; s >= 0; --s)
            labels.push_back(numbered("dW", s + 1));
        labels.push_back("Upd");
    }
    return labels;
}

int64_t
PipelineScheduler::unitRow(Op::Kind kind, int64_t stage) const
{
    const int64_t depth = depth_;
    switch (kind) {
      case Op::Kind::Forward:
        return stage;
      case Op::Kind::ErrorSeed:
        return depth;
      case Op::Kind::ErrorBack:
        // Rows A_L2 .. A_22 follow ErrL, highest stage first.
        return depth + 1 + (depth - 1 - stage);
      case Op::Kind::Derivative:
        // Rows dW_L .. dW_1 follow the error rows.
        return 2 * depth + (depth - 1 - stage);
      case Op::Kind::Update:
        return 3 * depth;
      case Op::Kind::InputWrite:
        break; // input writes occupy no unit row
    }
    panic("unreachable unit row kind");
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

std::vector<PipelineScheduler::Op>
PipelineScheduler::buildSchedule() const
{
    const int64_t depth = depth_;
    const int64_t n = config_.num_images;
    const bool training = config_.training;
    // An image's ops lie at offsets 0..last from its entry cycle
    // (appendOpsAt).
    const int64_t last = training ? 2 * depth + 1 : depth;
    const int64_t spacing = config_.pipelined ? 1 : last;
    // Testing is one batch with no update.
    const int64_t batch = training ? config_.batch_size : n;
    const std::vector<int64_t> &arrivals = config_.arrival_cycles;

    std::vector<Op> ops;
    ops.reserve(static_cast<size_t>(
        training ? n * (3 * depth + 1) + ceilDiv(n, batch)
                 : n * (depth + 1)));
    int64_t base = 0; // entry cycle of the batch's first image
    for (int64_t first = 0; first < n;) {
        const int64_t end = std::min(first + batch, n);
        const auto entry = [&](int64_t image) {
            return arrivals.empty()
                ? base + (image - first) * spacing
                : arrivals[static_cast<size_t>(image)];
        };
        // Walk the batch cycle by cycle with images [lo, hi) in
        // flight, each appending its ops in ascending image order; an
        // empty window jumps to the next entry cycle.
        int64_t lo = first;
        int64_t hi = first;
        for (int64_t cycle = entry(first); lo < end;) {
            while (hi < end && entry(hi) == cycle)
                ++hi;
            for (int64_t image = lo; image < hi; ++image)
                appendOpsAt(depth, image, cycle - entry(image), cycle, ops);
            while (lo < hi && entry(lo) + last == cycle)
                ++lo;
            cycle = lo == hi && hi < end ? entry(hi) : cycle + 1;
        }
        if (training) {
            // Weight update one cycle after the last image drains; the
            // next batch enters in the same cycle, after it.
            base = entry(end - 1) + last + 1;
            ops.push_back({Op::Kind::Update, -1, -1, base});
        }
        first = end;
    }
    return ops;
}

/** Buffers and counters shared by both run paths. */
struct PipelineScheduler::RunState
{
    std::vector<CircularBuffer> d_buffers;     //!< d_0..d_L
    std::vector<CircularBuffer> delta_buffers; //!< δ_1..δ_L
    ScheduleStats stats;
    /** Last cycle each unit (unitRow() order) was claimed, or -1. */
    std::vector<int64_t> last_claim;

    RunState(int64_t depth, int64_t buffer_slack)
    {
        for (int64_t j = 0; j <= depth; ++j) {
            const int64_t entries = std::max<int64_t>(
                1, 2 * (depth - j) + 1 + buffer_slack);
            d_buffers.emplace_back(numbered("d", j), entries);
        }
        for (int64_t j = 0; j < depth; ++j) {
            const int64_t entries =
                std::max<int64_t>(1, 1 + buffer_slack);
            delta_buffers.emplace_back(numbered("delta", j + 1),
                                       entries);
        }
        stats.per_stage_ops.assign(static_cast<size_t>(depth), 0);
        last_claim.assign(static_cast<size_t>(3 * depth + 1), -1);
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

    // Structural-hazard check: one claim per unit and cycle.  Input
    // writes go to the memory subarrays, not a compute unit.
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::InputWrite)
            continue;
        int64_t &last = state.last_claim[static_cast<size_t>(
            unitRow(op.kind, op.stage))];
        if (last == cycle)
            ++stats.structural_hazards;
        last = cycle;
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
            trace_->complete(trace_base_ + unitRow(op.kind, op.stage),
                             name,
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
    // Visit only the cycles that carry ops; each cycle's ops are one
    // contiguous run of the list.
    const std::vector<Op> ops = buildSchedule();
    RunState state(depth_, buffer_slack_);
    int64_t iters = 0;
    for (size_t i = 0; i < ops.size(); ++iters) {
        const int64_t cycle = ops[i].cycle;
        size_t end = i + 1;
        while (end < ops.size() && ops[end].cycle == cycle)
            ++end;
        const std::span<const Op> span(ops.data() + i, end - i);
        executeCycle(cycle, span, state);
        if (execute)
            execute(cycle, span);
        i = end;
    }
    last_run_cycle_iters_ = iters;
    last_run_events_ = static_cast<int64_t>(ops.size());

    return finalizeStats(state, ops.empty() ? 0 : ops.back().cycle);
}

ScheduleStats
PipelineScheduler::runReference()
{
    const int64_t depth = depth_;

    // Walk every cycle of the closed-form horizon plus a margin, idle
    // or not, handing each its run of the list.  The closed forms
    // bound the schedule; an op past the horizon means the formulas
    // and the schedule generator disagree.
    const int64_t horizon = scheduleSpan() + 2 * depth + 6;
    const std::vector<Op> ops = buildSchedule();
    const int64_t last_cycle = ops.empty() ? 0 : ops.back().cycle;
    PL_ASSERT(last_cycle < horizon,
              "op scheduled at cycle %lld beyond horizon %lld",
              (long long)last_cycle, (long long)horizon);
    RunState state(depth, buffer_slack_);
    size_t next = 0;
    for (int64_t cycle = 0; cycle < horizon; ++cycle) {
        const size_t begin = next;
        while (next < ops.size() && ops[next].cycle == cycle)
            ++next;
        executeCycle(cycle, std::span<const Op>(ops.data() + begin,
                                                next - begin),
                     state);
    }
    last_run_cycle_iters_ = horizon;
    last_run_events_ = static_cast<int64_t>(ops.size());

    return finalizeStats(state, last_cycle);
}

std::string
PipelineScheduler::renderTimeline(int64_t max_cycles)
{
    const std::vector<Op> ops = buildSchedule();
    const int64_t last_cycle = ops.empty() ? 0 : ops.back().cycle;
    const int64_t cycles = std::min<int64_t>(last_cycle, max_cycles);
    const size_t width = static_cast<size_t>(std::max<int64_t>(cycles, 0));

    auto image_glyph = [](int64_t image) {
        // Images cycle through 0-9 then a-z for readability.
        if (image < 0)
            return '*';
        const int64_t m = image % 36;
        return m < 10 ? static_cast<char>('0' + m)
                      : static_cast<char>('a' + (m - 10));
    };

    // One row per unit, one cell per cycle 1..cycles, showing the
    // first op (in emission order) that occupies the unit.
    const std::vector<std::string> labels = unitLabels();
    std::vector<std::string> cells(labels.size(), std::string(width, '.'));
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::InputWrite || op.cycle < 1 ||
            op.cycle > cycles)
            continue;
        std::string &row =
            cells[static_cast<size_t>(unitRow(op.kind, op.stage))];
        char &cell = row[static_cast<size_t>(op.cycle - 1)];
        if (cell == '.')
            cell = image_glyph(op.image);
    }

    size_t label_width = 0;
    for (const std::string &label : labels)
        label_width = std::max(label_width, label.size());

    std::string out;
    // Header: cycle numbers mod 10.
    out.append(label_width + 2, ' ');
    for (int64_t c = 1; c <= cycles; ++c)
        out += std::to_string(c % 10);
    out += "\n";

    for (size_t row = 0; row < labels.size(); ++row) {
        out += labels[row];
        out.append(label_width - labels[row].size() + 2, ' ');
        out += cells[row];
        out += "\n";
    }
    if (last_cycle > cycles)
        out += "(clipped after " + std::to_string(cycles) + " of " +
               std::to_string(last_cycle) + " cycles)\n";
    return out;
}

} // namespace arch
} // namespace pipelayer
