#include "core/pipelined_trainer.hh"

#include <algorithm>

#include "arch/pipeline.hh"
#include "common/arena.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"

namespace pipelayer {
namespace core {

/** One pipeline stage: an array layer plus its activation-unit tail. */
struct PipelinedTrainer::Stage
{
    nn::Layer *array = nullptr;     //!< the Conv or InnerProduct layer
    std::vector<nn::Layer *> tail;  //!< activations, pools, flatten
};

/** What one image leaves in a stage's output buffer. */
struct PipelinedTrainer::Entry
{
    Tensor output;                //!< d_l: the stage output (post tail)
    std::vector<nn::Saved> saved; //!< per tail layer, for the error pass
};

PipelinedTrainer::PipelinedTrainer(nn::Network &net) : net_(net)
{
    // Partition the layer list into array-layer stages.  Only a
    // flatten may precede the first array layer (MLPs): it is dropped,
    // as the inner-product layer reshapes its input anyway.
    Stage *current = nullptr;
    for (size_t i = 0; i < net_.numLayers(); ++i) {
        nn::Layer &layer = net_.layer(i);
        // A crossbar convolution (core::MappedConvLayer) rejects other
        // strides when it is programmed.
        const auto *conv = dynamic_cast<const nn::ConvLayer *>(&layer);
        PL_ASSERT(conv == nullptr || conv->stride() == 1,
                  "pipelined training maps stride-1 convolutions");
        switch (layer.kind()) {
          case nn::LayerKind::Conv:
          case nn::LayerKind::InnerProduct:
            stages_.push_back(std::make_unique<Stage>());
            current = stages_.back().get();
            current->array = &layer;
            break;
          default:
            if (current) {
                current->tail.push_back(&layer);
            } else {
                PL_ASSERT(layer.kind() == nn::LayerKind::Flatten,
                          "unsupported pre-array layer in pipelined "
                          "training");
            }
            break;
        }
    }
    PL_ASSERT(!stages_.empty(), "network has no array layers");
}

PipelinedTrainer::~PipelinedTrainer() = default;

int64_t
PipelinedTrainer::depth() const
{
    return static_cast<int64_t>(stages_.size());
}

json::Value
PipelinedBatchResult::toJson() const
{
    json::Value v = json::Value::object();
    v["mean_loss"] = json::Value(mean_loss);
    v["logical_cycles"] = json::Value(logical_cycles);
    v["peak_buffer_entries"] = json::Value(peak_buffer_entries);
    v["forward_ops"] = json::Value(forward_ops);
    v["error_seeds"] = json::Value(error_seeds);
    v["backward_ops"] = json::Value(backward_ops);
    v["commits"] = json::Value(commits);
    return v;
}

void
PipelinedTrainer::addStats(stats::StatGroup &group)
{
    group.registerScalar("cycles", &stat_cycles_,
                         "logical cycles executed");
    group.registerScalar("batches", &stat_batches_,
                         "pipelined batches trained");
    group.registerScalar("forward_ops", &stat_forward_ops_,
                         "per-cycle stage-forward evaluations");
    group.registerScalar("error_seeds", &stat_error_seeds_,
                         "output-error seedings (one per image)");
    group.registerScalar("backward_ops", &stat_backward_ops_,
                         "error-backward + derivative pairs");
    group.registerScalar("commits", &stat_commits_,
                         "serial phase-2 buffer commits");
    group.registerScalar("weight_updates", &stat_updates_,
                         "array stages updated at update cycles");
    // Scratch high-water mark: stabilises after the first batch when
    // the steady-state per-cycle loop is heap-allocation free.
    arena::addStats(group, "arena");
}

void
PipelinedTrainer::setTrace(trace::TraceRecorder *recorder)
{
    trace_ = recorder;
    trace_base_ = -1;
    trace_cycle_base_ = 0;
}

PipelinedBatchResult
PipelinedTrainer::trainBatch(const std::vector<Tensor> &inputs,
                             const std::vector<int64_t> &labels,
                             float lr)
{
    using Op = arch::PipelineScheduler::Op;

    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad pipelined batch");
    const int64_t depth_l = depth();
    const auto batch = static_cast<int64_t>(inputs.size());

    net_.zeroGrads();

    // The tensors behind the scheduler's buffer slots: d[j][i] is d_j
    // of image i (j in [0, L]), delta[l-1][i] is δ_l.  The scheduler's
    // circular buffers account capacity and hazards; a slot here is
    // freed at the op the scheduler marks as its final read.
    std::vector<std::vector<Entry>> d(
        static_cast<size_t>(depth_l + 1),
        std::vector<Entry>(static_cast<size_t>(batch)));
    std::vector<std::vector<Tensor>> delta(
        static_cast<size_t>(depth_l),
        std::vector<Tensor>(static_cast<size_t>(batch)));

    auto stage_forward = [&](const Stage &stage, const Tensor &input,
                             Entry *entry) {
        Tensor x = stage.array->forward(input);
        entry->saved.resize(stage.tail.size());
        for (size_t k = 0; k < stage.tail.size(); ++k)
            x = stage.tail[k]->forward(x, &entry->saved[k]);
        entry->output = std::move(x);
    };

    // Back a stage-output error through the stage tail only, to the
    // array-layer output.
    auto tail_backward = [&](const Stage &stage, Tensor delta_out,
                             const Entry &entry) {
        for (size_t k = stage.tail.size(); k-- > 0;)
            delta_out = stage.tail[k]->backward(delta_out, entry.saved[k]);
        return delta_out;
    };

    // Phase 1 of a cycle: one op's tensor work.  Ops only *read* the
    // buffers, and no two ops of a cycle claim the same unit, so a
    // cycle's ops run concurrently.  A Derivative op accumulates into
    // its array layer's gradients here: that layer sees one ∂W
    // contribution per cycle, in ascending image order, as in the
    // serial schedule.
    struct OpResult
    {
        Entry forward_out; //!< Forward: d_{l+1}
        double loss = 0.0; //!< ErrorSeed
        Tensor delta;      //!< ErrorSeed / ErrorBack: the error out
    };
    auto compute = [&](const Op &op, OpResult &out) {
        const auto i = static_cast<size_t>(op.image);
        const auto s = static_cast<size_t>(op.stage);
        switch (op.kind) {
          case Op::Kind::Forward:
            stage_forward(*stages_[s], d[s][i].output, &out.forward_out);
            break;
          case Op::Kind::ErrorSeed: {
            const Entry &top = d[static_cast<size_t>(depth_l)][i];
            nn::LossResult seed =
                nn::lossFor(net_.lossKind(), top.output, labels[i]);
            out.loss = seed.loss;
            // δ_L lands at the array output of the last stage.
            out.delta =
                tail_backward(*stages_[s], std::move(seed.delta), top);
            break;
          }
          case Op::Kind::ErrorBack: {
            // Error-backward unit: δ_s from δ_{s+1} through stage s's
            // array and stage s-1's tail (stage is 0-based).
            const Entry &input_entry = d[s][i];
            const Tensor delta_in =
                stages_[s]->array->backward(delta[s][i], {}).reshape(
                    input_entry.output.shape());
            out.delta =
                tail_backward(*stages_[s - 1], delta_in, input_entry);
            break;
          }
          case Op::Kind::Derivative:
            // Derivative unit: ∂W from d_s and δ_{s+1}.
            stages_[s]->array->accumulateGrads(d[s][i].output,
                                               delta[s][i]);
            break;
          case Op::Kind::Update:
          case Op::Kind::InputWrite:
            break; // commit-only ops
        }
    };

    // Phase 2 of a cycle: commit one op, serially in op order — the
    // schedule's read-before-write buffer semantics (§3.3).
    double loss_sum = 0.0;
    auto commit = [&](const Op &op, OpResult &res) {
        const auto i = static_cast<size_t>(op.image);
        const auto s = static_cast<size_t>(op.stage);
        switch (op.kind) {
          case Op::Kind::InputWrite:
            d[0][i].output = inputs[i];
            break;
          case Op::Kind::Forward:
            d[s + 1][i] = std::move(res.forward_out);
            break;
          case Op::Kind::ErrorSeed:
            loss_sum += res.loss;
            delta[s][i] = std::move(res.delta);
            d[s + 1][i] = Entry{}; // d_L's final read
            break;
          case Op::Kind::ErrorBack:
            delta[s - 1][i] = std::move(res.delta);
            break;
          case Op::Kind::Derivative:
            // Final reads of d_s and δ_{s+1} for this image.
            d[s][i] = Entry{};
            delta[s][i] = Tensor{};
            break;
          case Op::Kind::Update:
            net_.applyUpdate(lr, batch);
            break;
        }
    };

    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = batch;
    config.num_images = batch;
    arch::PipelineScheduler scheduler(depth_l, config);
    if (trace_) {
        // The first traced batch declares the Fig. 6 rows; later
        // batches append on them along the time axis.
        if (trace_base_ < 0) {
            trace_base_ = trace_->trackCount();
            scheduler.setTrace(trace_);
        } else {
            scheduler.continueTrace(trace_, trace_base_,
                                    trace_cycle_base_);
        }
    }

    // Hoisted out of the cycle loop: clear() keeps the capacity, so
    // steady-state cycles reuse the same allocation.
    std::vector<OpResult> results;
    const arch::ScheduleStats stats = scheduler.run(
        [&](int64_t, std::span<const Op> ops) {
            PL_PROF_SCOPE("trainer.cycle");
            results.clear();
            results.resize(ops.size());
            {
                PL_PROF_SCOPE("trainer.cycle_compute");
                parallel_for(0, static_cast<int64_t>(ops.size()),
                             [&](int64_t k0, int64_t k1) {
                    for (int64_t k = k0; k < k1; ++k) {
                        compute(ops[static_cast<size_t>(k)],
                                results[static_cast<size_t>(k)]);
                    }
                });
            }
            PL_PROF_SCOPE("trainer.cycle_commit");
            for (size_t k = 0; k < ops.size(); ++k)
                commit(ops[k], results[k]);
        });
    PL_ASSERT(stats.buffer_violations == 0 &&
                  stats.structural_hazards == 0,
              "pipelined batch broke the Fig. 6 buffer discipline");

    PipelinedBatchResult result;
    result.mean_loss = loss_sum / static_cast<double>(batch);
    result.logical_cycles = stats.total_cycles;
    result.peak_buffer_entries = *std::max_element(
        stats.peak_buffer_entries.begin(),
        stats.peak_buffer_entries.end());
    result.forward_ops = stats.forward_ops;
    result.error_seeds = batch;
    result.backward_ops = stats.derivative_ops;
    result.commits =
        result.forward_ops + result.error_seeds + result.backward_ops;
    trace_cycle_base_ += stats.total_cycles;

    stat_cycles_ += static_cast<double>(result.logical_cycles);
    stat_batches_ += 1.0;
    stat_forward_ops_ += static_cast<double>(result.forward_ops);
    stat_error_seeds_ += static_cast<double>(result.error_seeds);
    stat_backward_ops_ += static_cast<double>(result.backward_ops);
    stat_commits_ += static_cast<double>(result.commits);
    stat_updates_ += static_cast<double>(depth_l);
    return result;
}

} // namespace core
} // namespace pipelayer
