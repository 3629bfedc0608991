#include "support/cluster_trainer.hh"

#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pipelayer {
namespace core {

json::Value
ClusterBatchResult::toJson() const
{
    json::Value v = json::Value::object();
    v["mean_loss"] = json::Value(mean_loss);
    v["logical_cycles"] = json::Value(logical_cycles);
    v["num_chips"] = json::Value(num_chips);
    json::Value chips = json::Value::array();
    for (const PipelinedBatchResult &r : per_chip)
        chips.push(r.toJson());
    v["per_chip"] = std::move(chips);
    return v;
}

ClusterTrainer::ClusterTrainer(nn::Network &net,
                               std::vector<nn::Network> replicas)
    : net_(net), replicas_(std::move(replicas))
{
    for (const nn::Network &replica : replicas_) {
        if (replica.numLayers() != net_.numLayers() ||
            replica.parameterCount() != net_.parameterCount() ||
            replica.lossKind() != net_.lossKind()) {
            throw ConfigError(
                "ClusterTrainer: replica '" + replica.name() +
                "' does not match the master topology and loss");
        }
    }
    trainers_.push_back(std::make_unique<PipelinedTrainer>(net_));
    for (nn::Network &replica : replicas_)
        trainers_.push_back(std::make_unique<PipelinedTrainer>(replica));
}

ClusterTrainer::~ClusterTrainer() = default;

int64_t
ClusterTrainer::numChips() const
{
    return static_cast<int64_t>(trainers_.size());
}

void
ClusterTrainer::broadcastWeights()
{
    for (nn::Network &replica : replicas_) {
        for (size_t l = 0; l < net_.numLayers(); ++l) {
            const auto src = net_.layer(l).parameters();
            const auto dst = replica.layer(l).parameters();
            PL_ASSERT(src.size() == dst.size(),
                      "replica layer %zu parameter mismatch", l);
            for (size_t p = 0; p < src.size(); ++p)
                *dst[p] = *src[p];
        }
    }
}

ClusterBatchResult
ClusterTrainer::trainBatch(const std::vector<Tensor> &inputs,
                           const std::vector<int64_t> &labels,
                           float lr)
{
    const int64_t chips = numChips();
    const int64_t batch = static_cast<int64_t>(inputs.size());
    if (batch == 0 || labels.size() != inputs.size()) {
        throw ConfigError(
            "ClusterTrainer: batch needs matching, non-empty inputs "
            "and labels");
    }
    if (batch % chips != 0) {
        throw ConfigError(
            "ClusterTrainer: num_chips (" + std::to_string(chips) +
            ") must divide the batch size (" + std::to_string(batch) +
            "): chips shard every batch evenly");
    }
    const int64_t shard = batch / chips;

    // Every chip starts the batch from the same weights.
    broadcastWeights();

    // Parallel compute: chip c trains its contiguous shard into its
    // own replica.  Nested tensor parallelism runs inline on the
    // worker, and no two chips share any tensor, so chunk assignment
    // cannot influence a single committed byte.
    ClusterBatchResult out;
    out.num_chips = chips;
    out.per_chip.resize(static_cast<size_t>(chips));
    parallel_for(0, chips, [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
            const auto begin =
                static_cast<size_t>(c * shard);
            const std::vector<Tensor> chip_inputs(
                inputs.begin() + begin,
                inputs.begin() + begin + static_cast<size_t>(shard));
            const std::vector<int64_t> chip_labels(
                labels.begin() + begin,
                labels.begin() + begin + static_cast<size_t>(shard));
            out.per_chip[static_cast<size_t>(c)] =
                trainers_[static_cast<size_t>(c)]->trainBatch(
                    chip_inputs, chip_labels, lr);
        }
    });

    // Serial ascending-chip reduction commit: average the per-chip
    // updated weights into the master.  Equal shards make this
    // exactly the batch-mean gradient step (file comment); the
    // double accumulator walks chips in ascending order, so the
    // committed bits never depend on the thread count.
    if (chips > 1) {
        for (size_t l = 0; l < net_.numLayers(); ++l) {
            const auto master = net_.layer(l).parameters();
            for (size_t p = 0; p < master.size(); ++p) {
                Tensor &w = *master[p];
                for (int64_t i = 0; i < w.numel(); ++i) {
                    double acc = static_cast<double>(w.at(i));
                    for (nn::Network &replica : replicas_) {
                        acc += static_cast<double>(
                            replica.layer(l).parameters()[p]->at(i));
                    }
                    w.at(i) = static_cast<float>(
                        acc / static_cast<double>(chips));
                }
            }
        }
    }

    for (const PipelinedBatchResult &r : out.per_chip) {
        out.mean_loss += r.mean_loss;
        out.logical_cycles =
            std::max(out.logical_cycles, r.logical_cycles);
    }
    out.mean_loss /= static_cast<double>(chips);
    return out;
}

} // namespace core
} // namespace pipelayer
