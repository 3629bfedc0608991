#include "core/pipelined_trainer.hh"

#include <algorithm>
#include <cmath>

#include "arch/pipeline.hh"
#include "common/arena.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace core {

/** A non-array op riding in a stage's activation unit. */
struct TailOp
{
    nn::LayerKind kind;
    int64_t window = 0; //!< pooling window
};

/** One pipeline stage: an array layer plus its activation-unit tail. */
struct PipelinedTrainer::Stage
{
    nn::Layer *array_layer = nullptr;
    nn::LayerKind array_kind = nn::LayerKind::Conv;
    int64_t conv_pad = 0;
    int64_t conv_kernel = 0;
    std::vector<TailOp> tail;

    Tensor weight_grad;
    Tensor bias_grad;
};

/** What one image leaves in a stage's output buffer. */
struct PipelinedTrainer::Entry
{
    Tensor output;               //!< d_l: the stage output (post tail)
    std::vector<Tensor> aux;     //!< per tail op (masks/indices)
    std::vector<Shape> in_shape; //!< per tail op input shape
};

namespace {

/** Forward one tail op, recording what backward will need. */
Tensor
tailForward(const TailOp &op, const Tensor &x, Tensor *aux)
{
    switch (op.kind) {
      case nn::LayerKind::ReLU: {
        Tensor out = x;
        for (int64_t i = 0; i < out.numel(); ++i)
            out.at(i) = out.at(i) > 0.0f ? out.at(i) : 0.0f;
        *aux = out;
        return out;
      }
      case nn::LayerKind::Sigmoid: {
        Tensor out = x;
        for (int64_t i = 0; i < out.numel(); ++i)
            out.at(i) = 1.0f / (1.0f + std::exp(-out.at(i)));
        *aux = out;
        return out;
      }
      case nn::LayerKind::MaxPool:
        return ops::maxPool(x, op.window, aux);
      case nn::LayerKind::AvgPool:
        return ops::avgPool(x, op.window);
      case nn::LayerKind::Flatten:
        return x.reshape({x.numel()});
      default:
        panic("unsupported tail op");
    }
}

/** Backward one tail op from its recorded aux data. */
Tensor
tailBackwardOp(const TailOp &op, const Tensor &delta, const Tensor &aux,
               const Shape &in_shape)
{
    switch (op.kind) {
      case nn::LayerKind::ReLU: {
        Tensor out = delta;
        for (int64_t i = 0; i < out.numel(); ++i) {
            if (aux.at(i) <= 0.0f)
                out.at(i) = 0.0f;
        }
        return out;
      }
      case nn::LayerKind::Sigmoid: {
        Tensor out = delta;
        for (int64_t i = 0; i < out.numel(); ++i) {
            const float s = aux.at(i);
            out.at(i) *= s * (1.0f - s);
        }
        return out;
      }
      case nn::LayerKind::MaxPool:
        return ops::maxPoolBackward(delta, aux, in_shape);
      case nn::LayerKind::AvgPool:
        return ops::avgPoolBackward(delta, op.window, in_shape);
      case nn::LayerKind::Flatten:
        return delta.reshape(in_shape);
      default:
        panic("unsupported tail op");
    }
}

TailOp
makeTailOp(nn::Layer &layer)
{
    TailOp op;
    op.kind = layer.kind();
    if (op.kind == nn::LayerKind::MaxPool)
        op.window = static_cast<nn::MaxPoolLayer &>(layer).window();
    else if (op.kind == nn::LayerKind::AvgPool)
        op.window = static_cast<nn::AvgPoolLayer &>(layer).window();
    return op;
}

} // namespace

PipelinedTrainer::PipelinedTrainer(nn::Network &net) : net_(net)
{
    // Partition the layer list into array-layer stages; non-array
    // layers before the first array layer would need a prefix stage —
    // the supported networks start with an array layer or a flatten,
    // which we fold into a synthetic leading reshape below.
    Stage *current = nullptr;
    std::vector<TailOp> prefix;
    for (size_t i = 0; i < net_.numLayers(); ++i) {
        nn::Layer &layer = net_.layer(i);
        switch (layer.kind()) {
          case nn::LayerKind::Conv: {
            auto &conv = static_cast<nn::ConvLayer &>(layer);
            PL_ASSERT(conv.stride() == 1,
                      "pipelined training maps stride-1 convolutions");
            auto stage = std::make_unique<Stage>();
            stage->array_layer = &layer;
            stage->array_kind = nn::LayerKind::Conv;
            stage->conv_pad = conv.pad();
            stage->conv_kernel = conv.kernel();
            stage->weight_grad = Tensor(conv.parameters()[0]->shape());
            stage->bias_grad = Tensor(conv.parameters()[1]->shape());
            stages_.push_back(std::move(stage));
            current = stages_.back().get();
            break;
          }
          case nn::LayerKind::InnerProduct: {
            auto &ip = static_cast<nn::InnerProductLayer &>(layer);
            auto stage = std::make_unique<Stage>();
            stage->array_layer = &layer;
            stage->array_kind = nn::LayerKind::InnerProduct;
            stage->weight_grad = Tensor(ip.parameters()[0]->shape());
            stage->bias_grad = Tensor(ip.parameters()[1]->shape());
            stages_.push_back(std::move(stage));
            current = stages_.back().get();
            break;
          }
          default:
            if (current)
                current->tail.push_back(makeTailOp(layer));
            else
                prefix.push_back(makeTailOp(layer));
            break;
        }
    }
    PL_ASSERT(!stages_.empty(), "network has no array layers");
    // A leading flatten (MLPs) is harmless to drop: the inner-product
    // stage reshapes its input anyway.  Anything else up front is
    // unsupported.
    for (const TailOp &op : prefix) {
        PL_ASSERT(op.kind == nn::LayerKind::Flatten,
                  "unsupported pre-array layer in pipelined training");
    }
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
                             float lr, nn::LossKind loss)
{
    using Op = arch::PipelineScheduler::Op;

    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad pipelined batch");
    const int64_t depth_l = depth();
    const auto batch = static_cast<int64_t>(inputs.size());

    for (auto &stage : stages_) {
        stage->weight_grad.fill(0.0f);
        stage->bias_grad.fill(0.0f);
    }

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

    auto stage_forward = [&](Stage &stage, const Tensor &input,
                             Entry *entry) {
        const auto params = stage.array_layer->parameters();
        Tensor x;
        if (stage.array_kind == nn::LayerKind::Conv) {
            x = ops::conv2d(input, *params[0], *params[1], 1,
                            stage.conv_pad);
        } else {
            x = ops::matVec(*params[0], input.reshape({input.numel()}));
            x += *params[1];
        }
        entry->aux.clear();
        entry->in_shape.clear();
        for (const TailOp &op : stage.tail) {
            entry->in_shape.push_back(x.shape());
            Tensor aux;
            x = tailForward(op, x, &aux);
            entry->aux.push_back(std::move(aux));
        }
        entry->output = x;
    };

    // Back a stage-output error through the stage tail only, to the
    // array-layer output.
    auto tail_backward = [&](const Stage &stage, Tensor delta_out,
                             const Entry &entry) {
        for (size_t k = stage.tail.size(); k-- > 0;) {
            delta_out = tailBackwardOp(stage.tail[k], delta_out,
                                       entry.aux[k], entry.in_shape[k]);
        }
        return delta_out;
    };

    // Phase 1 of a cycle: one op's tensor work.  Ops only *read* the
    // buffers, and no two ops of a cycle claim the same unit, so a
    // cycle's ops run concurrently.  A Derivative op accumulates into
    // its stage's gradient here: that stage sees one ∂W contribution
    // per cycle, in ascending image order, as in the serial schedule.
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
            nn::LossResult seed;
            if (loss == nn::LossKind::Softmax) {
                seed = nn::softmaxLoss(top.output, labels[i]);
            } else {
                Tensor target(top.output.shape());
                target.at(labels[i]) = 1.0f;
                seed = nn::l2Loss(top.output, target);
            }
            out.loss = seed.loss;
            // δ_L lands at the array output of the last stage.
            out.delta = tail_backward(*stages_[s], seed.delta, top);
            break;
          }
          case Op::Kind::ErrorBack: {
            // Error-backward unit: δ_s from δ_{s+1} through stage s's
            // array and stage s-1's tail (stage is 0-based).
            const Stage &stage = *stages_[s];
            const Tensor &delta_array = delta[s][i];
            const Entry &input_entry = d[s][i];
            const auto params = stage.array_layer->parameters();
            Tensor delta_in;
            if (stage.array_kind == nn::LayerKind::Conv) {
                delta_in = ops::conv2dBackwardInput(
                    delta_array, *params[0], stage.conv_pad);
            } else {
                delta_in = ops::matVecT(
                    *params[0], delta_array.reshape({delta_array.numel()}));
            }
            delta_in = delta_in.reshape(input_entry.output.shape());
            out.delta =
                tail_backward(*stages_[s - 1], delta_in, input_entry);
            break;
          }
          case Op::Kind::Derivative: {
            // Derivative unit: ∂W from d_s and δ_{s+1}.
            Stage &stage = *stages_[s];
            const Tensor &delta_array = delta[s][i];
            const Tensor &input = d[s][i].output;
            if (stage.array_kind == nn::LayerKind::Conv) {
                stage.weight_grad += ops::conv2dBackwardKernel(
                    input, delta_array, stage.conv_kernel,
                    stage.conv_kernel, stage.conv_pad);
                for (int64_t c = 0; c < delta_array.dim(0); ++c) {
                    double acc = 0.0;
                    for (int64_t y = 0; y < delta_array.dim(1); ++y)
                        for (int64_t x = 0; x < delta_array.dim(2); ++x)
                            acc += delta_array(c, y, x);
                    stage.bias_grad(c) += static_cast<float>(acc);
                }
            } else {
                stage.weight_grad += ops::outer(
                    input.reshape({input.numel()}),
                    delta_array.reshape({delta_array.numel()}));
                stage.bias_grad +=
                    delta_array.reshape({delta_array.numel()});
            }
            break;
          }
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
          case Op::Kind::Update: {
            // Apply the batch-averaged gradients.
            const float scale = lr / static_cast<float>(batch);
            for (auto &stage : stages_) {
                const auto params = stage->array_layer->parameters();
                for (int64_t k = 0; k < params[0]->numel(); ++k)
                    params[0]->at(k) -= scale * stage->weight_grad.at(k);
                for (int64_t k = 0; k < params[1]->numel(); ++k)
                    params[1]->at(k) -= scale * stage->bias_grad.at(k);
            }
            break;
          }
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
                             /*grain=*/1, [&](int64_t k0, int64_t k1) {
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
