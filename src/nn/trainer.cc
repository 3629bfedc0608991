#include "nn/trainer.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pipelayer {
namespace nn {

void
Dataset::shuffle(Rng &rng)
{
    PL_ASSERT(inputs.size() == labels.size(), "dataset out of sync");
    // Fisher-Yates with the deterministic generator.
    for (size_t i = inputs.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.uniformInt(i));
        std::swap(inputs[i - 1], inputs[j]);
        std::swap(labels[i - 1], labels[j]);
    }
}

Dataset
Dataset::head(size_t n) const
{
    Dataset out;
    const size_t take = std::min(n, inputs.size());
    out.inputs.assign(inputs.begin(),
                      inputs.begin() + static_cast<ptrdiff_t>(take));
    out.labels.assign(labels.begin(),
                      labels.begin() + static_cast<ptrdiff_t>(take));
    return out;
}

TrainResult
train(Network &net, Dataset &train_set, const TrainConfig &config,
      Rng *rng, const BatchStep &step)
{
    PL_ASSERT(config.batch_size > 0, "batch size must be positive");
    PL_ASSERT(!train_set.inputs.empty(), "empty training set");

    TrainResult result;
    const size_t n = train_set.size();
    const size_t bsz = static_cast<size_t>(config.batch_size);
    std::vector<double> losses;
    for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
        if (rng)
            train_set.shuffle(*rng);

        double epoch_loss = 0.0;
        for (size_t start = 0; start < n; start += bsz) {
            const auto first = static_cast<ptrdiff_t>(start);
            const auto last =
                static_cast<ptrdiff_t>(std::min(start + bsz, n));
            const std::vector<Tensor> inputs(
                train_set.inputs.begin() + first,
                train_set.inputs.begin() + last);
            const std::vector<int64_t> labels(
                train_set.labels.begin() + first,
                train_set.labels.begin() + last);
            if (step)
                step(inputs, labels, losses);
            else
                net.trainBatch(inputs, labels, config.learning_rate,
                               &losses);
            PL_ASSERT(losses.size() == inputs.size(),
                      "a batch step must report one loss per image");
            for (const double loss : losses)
                epoch_loss += loss;
            ++result.batches_run;
        }
        result.epoch_loss.push_back(epoch_loss / static_cast<double>(n));
    }
    return result;
}

} // namespace nn
} // namespace pipelayer
