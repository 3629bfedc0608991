/**
 * @file
 * Functional execution of the pipelined training schedule.
 *
 * The cycle-level scheduler (arch::PipelineScheduler) proves the
 * *timing* of the paper's Fig. 6 pipeline; this trainer proves its
 * *semantics*: it executes the same schedule with real tensors —
 * one new image entering per logical cycle, intermediate data held
 * in capacity-constrained inter-stage buffers of exactly 2(L-l)+1
 * entries — and must produce the same weights as plain sequential
 * batch training: the interleaving changes when each image's work
 * runs, not the ascending image order in which a layer accumulates
 * its gradients.
 *
 * The tensor work is the network's own nn::Layer code — the same
 * forward, backward and accumulateGrads that Network::trainBatch
 * runs — so pipelined and sequential training agree bit for bit.
 * Several images are in flight per layer at once, precisely the
 * problem the paper's memory-subarray buffers solve: layers are
 * stateless per image, and everything the error pass needs (the stage
 * output d_l and the tail layers' nn::Saved state: pooling argmax
 * indices, activation outputs) travels in the buffer entry.
 *
 * The schedule itself comes from arch::PipelineScheduler: each batch
 * runs a (training, pipelined, N = B) scheduler whose executor hook
 * receives every busy cycle's ops.  The trainer computes a cycle's
 * ops in parallel, then commits their buffer writes serially in op
 * order, so weights, counters and traces are bit-identical at any
 * thread count.  Buffer capacities and hazards are the scheduler's
 * checks, and the trace is the scheduler's Fig. 6 trace (DESIGN.md
 * §8).
 */

#ifndef PIPELAYER_CORE_PIPELINED_TRAINER_HH_
#define PIPELAYER_CORE_PIPELINED_TRAINER_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "nn/network.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace core {

/** Outcome of a pipelined batch. */
struct PipelinedBatchResult
{
    double mean_loss = 0.0;
    int64_t logical_cycles = 0;   //!< the schedule's total_cycles
    int64_t peak_buffer_entries = 0; //!< max live entries in any buffer

    int64_t forward_ops = 0;    //!< per-cycle stage-forward evaluations
    int64_t error_seeds = 0;    //!< output-error seedings (one/image)
    int64_t backward_ops = 0;   //!< derivative ops (one per stage/image)
    int64_t commits = 0;        //!< serial phase-2 buffer commits

    /** Machine-readable form of the batch outcome. */
    json::Value toJson() const;
};

/**
 * Pipelined batch-SGD trainer over a functional network.
 *
 * The network is borrowed; its layers run every op, its loss kind
 * seeds the output error, and its applyUpdate() runs at the batch's
 * update cycle.  Supported layers: Conv (stride 1), InnerProduct,
 * ReLU, Sigmoid, MaxPool, AvgPool, Flatten — float layers, or the
 * crossbar layers of a PipeLayerDevice::network().
 */
class PipelinedTrainer
{
  public:
    explicit PipelinedTrainer(nn::Network &net);
    ~PipelinedTrainer();

    PipelinedTrainer(const PipelinedTrainer &) = delete;
    PipelinedTrainer &operator=(const PipelinedTrainer &) = delete;

    /** Pipeline depth L (array-layer stages). */
    int64_t depth() const;

    /**
     * Train one batch through the pipelined schedule and apply the
     * averaged update (paper Fig. 6 + §4.4.2).
     */
    PipelinedBatchResult trainBatch(const std::vector<Tensor> &inputs,
                                    const std::vector<int64_t> &labels,
                                    float lr);

    /**
     * Register the trainer's cumulative work counters (logical
     * cycles, per-cycle stage work, serial commit counts, batches)
     * with @p group.  Counters accumulate across trainBatch() calls
     * and are updated in the serial commit phase, so a dump is
     * byte-identical at any thread count.  The trainer must outlive
     * any dump; resetAll() on the group zeroes them.
     */
    void addStats(stats::StatGroup &group);

    /**
     * Attach a per-logical-cycle event trace: the scheduler's Fig. 6
     * rows (PipelineScheduler::setTrace, 3L+1 tracks) are declared by
     * the first trainBatch(), and every batch appends its slices along
     * the time axis.  Pass nullptr to detach.  The recorder must
     * outlive trainBatch().
     */
    void setTrace(trace::TraceRecorder *recorder);

  private:
    struct Stage;
    struct Entry;

    nn::Network &net_;
    std::vector<std::unique_ptr<Stage>> stages_;

    // Cumulative work counters (see addStats).
    stats::Scalar stat_cycles_;
    stats::Scalar stat_batches_;
    stats::Scalar stat_forward_ops_;
    stats::Scalar stat_error_seeds_;
    stats::Scalar stat_backward_ops_;
    stats::Scalar stat_commits_;
    stats::Scalar stat_updates_;

    trace::TraceRecorder *trace_ = nullptr;
    int64_t trace_base_ = -1;     //!< first Fig. 6 row (-1: none yet)
    int64_t trace_cycle_base_ = 0; //!< cycle offset of the next batch
};

} // namespace core
} // namespace pipelayer

#endif // PIPELAYER_CORE_PIPELINED_TRAINER_HH_
