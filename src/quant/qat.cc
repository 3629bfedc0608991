#include "quant/qat.hh"

#include <vector>

#include "common/logging.hh"
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

    // Per batch, the readable (cell-resolution) weights drive the
    // forward/backward computation, and the applied update then
    // accumulates into the analog master conductances (paper §4.4.2:
    // derivatives are programmed additively, not re-rounded).
    std::vector<Tensor> readable(params.size());
    auto step = [&](const std::vector<Tensor> &inputs,
                    const std::vector<int64_t> &labels,
                    std::vector<double> &losses) {
        deploy();
        for (size_t k = 0; k < params.size(); ++k)
            readable[k] = *params[k];
        net.trainBatch(inputs, labels, config.learning_rate, &losses);
        // master += params − readable, one pass with no temporaries.
        for (size_t k = 0; k < params.size(); ++k) {
            float *m = master[k].data();
            const float *p = params[k]->data(), *r = readable[k].data();
            for (int64_t i = 0; i < master[k].numel(); ++i)
                m[i] += p[i] - r[i];
        }
    };
    nn::TrainConfig loop;
    loop.epochs = config.epochs;
    loop.batch_size = config.batch_size;
    loop.learning_rate = config.learning_rate;
    nn::Dataset order = train;
    const nn::TrainResult run = nn::train(net, order, loop, &rng, step);

    QatResult result;
    result.final_loss = run.epoch_loss.back();
    deploy();
    result.test_accuracy = net.accuracy(test.inputs, test.labels);
    return result;
}

} // namespace quant
} // namespace pipelayer
