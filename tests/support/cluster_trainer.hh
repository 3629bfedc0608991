/**
 * @file
 * Functional data-parallel training across chip replicas.
 *
 * arch::Cluster prices the multi-chip schedule (DESIGN.md §9); this
 * trainer proves its *semantics*: C network replicas start every
 * batch with identical weights, each runs the pipelined schedule
 * (core::PipelinedTrainer) over its 1/C shard of the batch, and the
 * reduction commit averages the per-chip updated weights back into
 * every replica.  For plain SGD with equal shards this is exactly
 * gradient aggregation —
 *
 *   mean_c (w - lr * grad_c) = w - lr * mean_c(grad_c)
 *
 * — so the cluster's weights track sequential batch training up to
 * the float rounding of the per-chip updates.
 *
 * Host determinism follows the repo discipline: chips compute in
 * parallel on the common/parallel.hh pool (each into its own replica;
 * nested tensor parallelism runs inline on the worker), and the
 * weight-average commit walks chips serially in ascending order with
 * a per-parameter double accumulator, so the committed weights are
 * bit-identical at any PL_THREADS.  A 1-chip cluster never replicates
 * or averages and is byte-identical to a bare PipelinedTrainer.
 *
 * An oracle for tests/test_cluster.cc, in the pl_test_support
 * library (tests/support); no program constructs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_CLUSTER_TRAINER_HH_
#define PIPELAYER_TESTS_SUPPORT_CLUSTER_TRAINER_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipelined_trainer.hh"
#include "nn/network.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace core {

/** Outcome of one data-parallel batch. */
struct ClusterBatchResult
{
    double mean_loss = 0.0;      //!< mean over all images in the batch
    int64_t logical_cycles = 0;  //!< per-chip schedule cycles (equal)
    int64_t num_chips = 1;

    /** Per-chip pipelined outcomes, chip order. */
    std::vector<PipelinedBatchResult> per_chip;

    /** Machine-readable form of the batch outcome. */
    json::Value toJson() const;
};

/**
 * Data-parallel batch-SGD trainer over C chip replicas.
 *
 * Chip 0 is the borrowed master network @p net (its weights are the
 * cluster's weights between batches); chips 1..C-1 are the owned
 * @p replicas, which must share the master's topology (checked).  An
 * empty replica vector is the 1-chip cluster.
 */
class ClusterTrainer
{
  public:
    ClusterTrainer(nn::Network &net,
                   std::vector<nn::Network> replicas = {});
    ~ClusterTrainer();

    ClusterTrainer(const ClusterTrainer &) = delete;
    ClusterTrainer &operator=(const ClusterTrainer &) = delete;

    /** Chips in the cluster (1 + replicas). */
    int64_t numChips() const;

    /**
     * Train one batch: broadcast the master weights to every replica,
     * run every chip's PipelinedTrainer over its contiguous 1/C shard
     * (parallel compute), then commit the ascending-chip weight
     * average into the master and every replica.  The batch size must
     * be divisible by the chip count (throws ConfigError).
     */
    ClusterBatchResult trainBatch(const std::vector<Tensor> &inputs,
                                  const std::vector<int64_t> &labels,
                                  float lr);

  private:
    /** Copy the master's parameter tensors into every replica. */
    void broadcastWeights();

    nn::Network &net_;
    std::vector<nn::Network> replicas_;
    std::vector<std::unique_ptr<PipelinedTrainer>> trainers_; //!< per chip
};

} // namespace core
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_CLUSTER_TRAINER_HH_
