#include "quant/qat.hh"

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "quant/quantize.hh"

namespace pipelayer {
namespace quant {

namespace {

/** Collect every parameter tensor of the network. */
std::vector<Tensor *>
allParams(nn::Network &net)
{
    std::vector<Tensor *> out;
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (Tensor *p : net.layer(l).parameters())
            out.push_back(p);
    }
    return out;
}

} // namespace

QatResult
trainQuantized(nn::Network &net, const nn::Dataset &train,
               const nn::Dataset &test, const QatConfig &config, Rng &rng)
{
    PL_ASSERT(config.batch_size >= 1 && config.epochs >= 1,
              "bad QAT config");
    const auto params = allParams(net);
    std::vector<Tensor> master;
    master.reserve(params.size());
    for (Tensor *p : params)
        master.push_back(*p);

    auto deploy = [&]() {
        for (size_t k = 0; k < params.size(); ++k) {
            *params[k] = config.bits
                ? quantizeTensor(master[k], config.bits)
                : master[k];
        }
    };

    QatResult result;
    const auto bsz = static_cast<size_t>(config.batch_size);
    std::vector<Tensor> readable(params.size());
    nn::Dataset order = train;
    for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
        order.shuffle(rng);
        double loss = 0.0;
        int64_t batches = 0;
        for (size_t s = 0; s + bsz <= order.size(); s += bsz) {
            // The readable (cell-resolution) weights drive the
            // forward/backward computation.
            deploy();
            for (size_t k = 0; k < params.size(); ++k)
                readable[k] = *params[k];

            std::vector<Tensor> inputs(
                order.inputs.begin() + static_cast<ptrdiff_t>(s),
                order.inputs.begin() + static_cast<ptrdiff_t>(s + bsz));
            std::vector<int64_t> labels(
                order.labels.begin() + static_cast<ptrdiff_t>(s),
                order.labels.begin() + static_cast<ptrdiff_t>(s + bsz));
            loss += net.trainBatch(inputs, labels, config.learning_rate);
            ++batches;

            // Accumulate the applied update into the analog master
            // conductances (paper §4.4.2: derivatives are programmed
            // additively, not re-rounded).
            for (size_t k = 0; k < params.size(); ++k)
                master[k] += *params[k] - readable[k];
        }
        result.final_loss = loss / std::max<int64_t>(1, batches);
    }

    deploy();
    result.test_accuracy = net.accuracy(test.inputs, test.labels);
    return result;
}

} // namespace quant
} // namespace pipelayer
