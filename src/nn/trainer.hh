/**
 * @file
 * Batched SGD training loop and dataset container, mirroring the
 * paper's training procedure: weights are frozen within a batch and
 * updated once per batch from the averaged partial derivatives.
 */

#ifndef PIPELAYER_NN_TRAINER_HH_
#define PIPELAYER_NN_TRAINER_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/network.hh"
#include "tensor/tensor.hh"

namespace pipelayer {

class Rng;

namespace nn {

/** An in-memory labelled dataset. */
struct Dataset
{
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;

    size_t size() const { return inputs.size(); }

    /** Shuffle samples in place with the given generator. */
    void shuffle(Rng &rng);

    /** First @p n samples as a new dataset (for quick eval subsets). */
    Dataset head(size_t n) const;
};

/** Hyper-parameters of a training run. */
struct TrainConfig
{
    int64_t epochs = 5;
    int64_t batch_size = 16; //!< the paper's B
    float learning_rate = 0.05f;
};

/** Outcome of a training run. */
struct TrainResult
{
    /** Per epoch: the per-image losses summed in image order, over n. */
    std::vector<double> epoch_loss;
    int64_t batches_run = 0;
};

/**
 * One minibatch step: train on @p inputs and @p labels and write each
 * image's loss into @p losses, in image order.
 */
using BatchStep = std::function<void(const std::vector<Tensor> &inputs,
                                     const std::vector<int64_t> &labels,
                                     std::vector<double> &losses)>;

/**
 * Train @p net on @p train with batched SGD: the one loop that slices
 * a dataset into minibatches.  Each epoch shuffles @p train in place
 * when @p rng is given (deterministic given its seed), then runs @p
 * step on consecutive slices of config.batch_size images; a trailing
 * partial slice is a batch too.  The default step is
 * net.trainBatch(inputs, labels, config.learning_rate, &losses).
 * Scoring is left to the caller (Network::accuracy).
 */
TrainResult train(Network &net, Dataset &train, const TrainConfig &config,
                  Rng *rng = nullptr, const BatchStep &step = {});

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_TRAINER_HH_
