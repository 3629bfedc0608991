/**
 * @file
 * Cross-cutting coverage tests: behaviours that sit between the
 * per-module suites (post-update array consistency, partial batches,
 * formatting edge cases, scheduler corner cases).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "baseline/gpu_model.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "nn/layers.hh"
#include "nn/trainer.hh"
#include "reram/array_group.hh"
#include "support/one_window.hh"
#include "support/spike.hh"
#include "tensor/ops.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace {

TEST(Coverage, ArrayGroupMatVecStaysCorrectAfterUpdates)
{
    // Read-subtract-write cycles must leave the compute path intact:
    // matVec after several updates tracks the float model applied to
    // the *stored* (updated) weights.
    const reram::DeviceParams p;
    Rng rng(1);
    Tensor w = Tensor::randn({8, 10}, rng, 0.0f, 0.3f);
    w(0, 0) = 2.0f; // range anchor away from the clamp
    reram::ArrayGroup group(p, w);

    for (int step = 0; step < 3; ++step) {
        const Tensor grad = Tensor::randn({8, 10}, rng, 0.0f, 0.5f);
        group.updateWeights(grad, 0.1f, 4);
    }
    const Tensor stored = group.readWeights();
    Tensor x({10});
    for (int64_t i = 0; i < 10; ++i)
        x(i) = static_cast<float>(rng.uniform());
    const Tensor expect = ops::matVec(stored, x);
    const Tensor got = reram::matVecOnce(group, x);
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got(i), expect(i),
                    1e-2 * (1.0 + std::fabs(expect(i))));
}

class SpikeRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(SpikeRoundTrip, EncodeValueIdentity)
{
    const int bits = GetParam();
    const reram::SpikeDriver driver(bits);
    Rng rng(static_cast<uint64_t>(bits));
    for (int trial = 0; trial < 200; ++trial) {
        const auto code = static_cast<int64_t>(
            rng.uniformInt(uint64_t{1} << bits));
        EXPECT_EQ(driver.encode(code).value(), code);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SpikeRoundTrip,
                         ::testing::Values(1, 4, 8, 12, 16, 24));

TEST(Coverage, FormatCountPicksSuffix)
{
    EXPECT_EQ(formatCount(1.5e9), "1.5 G");
    EXPECT_EQ(formatCount(2.4e6), "2.4 M");
    EXPECT_EQ(formatCount(512), "512 ");
}

TEST(Coverage, GpuTrainingOverheadExceedsTesting)
{
    // Backward kernels add launches: the overhead-bound MNIST nets
    // must show a higher batch time in training purely from that.
    baseline::GpuModel gpu;
    const auto test = gpu.testing(workloads::mnistA());
    const auto train = gpu.training(workloads::mnistA());
    EXPECT_GT(train.time_per_batch, 1.5 * test.time_per_batch);
}

TEST(Coverage, TrainerHandlesPartialFinalBatch)
{
    auto make = [] {
        Rng rng(2);
        nn::Network net("partial", {1, 8, 8});
        net.add(std::make_unique<nn::FlattenLayer>());
        net.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));
        return net;
    };

    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 7; // 28 samples: not a multiple of 8
    data.test_per_class = 3;
    auto task = workloads::makeSyntheticTask(data);
    const nn::Dataset start = task.train;

    nn::Network net = make();
    nn::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 8;
    Rng train_rng(3);
    const auto result = nn::train(net, task.train, config, &train_rng);
    EXPECT_EQ(result.epoch_loss.size(), 2u);
    // ceil(28/8) = 4 batches per epoch.
    EXPECT_EQ(result.batches_run, 8);

    // The epoch loss weighs every image once, the 4-image batch too:
    // the per-image losses of a hand loop, summed in image order,
    // over 28.
    nn::Network hand = make();
    nn::Dataset order = start;
    Rng hand_rng(3);
    std::vector<double> losses;
    for (size_t epoch = 0; epoch < 2; ++epoch) {
        order.shuffle(hand_rng);
        double sum = 0.0;
        for (size_t first = 0; first < order.size(); first += 8) {
            const size_t last = std::min(first + 8, order.size());
            const std::vector<Tensor> inputs(
                order.inputs.begin() + static_cast<ptrdiff_t>(first),
                order.inputs.begin() + static_cast<ptrdiff_t>(last));
            const std::vector<int64_t> labels(
                order.labels.begin() + static_cast<ptrdiff_t>(first),
                order.labels.begin() + static_cast<ptrdiff_t>(last));
            hand.trainBatch(inputs, labels, config.learning_rate,
                            &losses);
            for (const double loss : losses)
                sum += loss;
        }
        EXPECT_EQ(result.epoch_loss[epoch], sum / 28.0)
            << "epoch " << epoch;
    }
}

TEST(Coverage, SchedulerTestingPeakBuffersAreModest)
{
    // Testing only pipelines forward: each interior buffer holds at
    // most one live entry at a time (written, read next cycle).
    workloads::NetworkSpec spec;
    spec.name = "chain";
    for (int i = 0; i < 4; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(8, 8));
    const reram::DeviceParams params;
    const arch::NetworkMapping map(
        spec, arch::GranularityConfig::naive(spec), params, false, 1);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = 32;
    const auto stats = arch::PipelineScheduler(map.depth(), config).run();
    for (size_t j = 1; j < stats.peak_buffer_entries.size(); ++j)
        EXPECT_LE(stats.peak_buffer_entries[j], 2) << "buffer " << j;
}

TEST(Coverage, NetworkDescribeListsEveryLayer)
{
    Rng rng(4);
    nn::Network net = workloads::buildMnist0Functional(rng);
    const std::string desc = net.describe();
    for (const char *token :
         {"conv5x20", "maxpool2", "conv5x50", "800-500", "500-10",
          "relu"}) {
        EXPECT_NE(desc.find(token), std::string::npos) << token;
    }
}

TEST(Coverage, GranularityToStringListsAllLayers)
{
    const auto spec = workloads::mnistO();
    const auto g = arch::GranularityConfig::balanced(spec);
    const std::string s = g.toString();
    // Four array layers -> three separating spaces.
    EXPECT_EQ(std::count(s.begin(), s.end(), ' '), 3);
}

TEST(Coverage, SigmoidNetworkTrainsOnHost)
{
    Rng rng(5);
    nn::Network net("sig", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 16, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(16, 4, rng));

    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 25;
    data.test_per_class = 10;
    auto task = workloads::makeSyntheticTask(data);

    nn::TrainConfig config;
    config.epochs = 15;
    config.batch_size = 10;
    config.learning_rate = 0.5f;
    Rng train_rng(6);
    nn::train(net, task.train, config, &train_rng);
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.7);
}

TEST(Coverage, AvgPoolNetworkTrainsOnHost)
{
    Rng rng(7);
    nn::Network net("avg", {1, 8, 8});
    net.add(std::make_unique<nn::ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::AvgPoolLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));

    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 25;
    data.test_per_class = 10;
    auto task = workloads::makeSyntheticTask(data);

    nn::TrainConfig config;
    config.epochs = 10;
    config.batch_size = 10;
    config.learning_rate = 0.1f;
    Rng train_rng(8);
    nn::train(net, task.train, config, &train_rng);
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.7);
}

TEST(Coverage, MappingRejectsMismatchedGranularity)
{
    const auto spec = workloads::mnistO();
    const auto wrong = arch::GranularityConfig::naive(
        workloads::mnistA()); // 2 layers, spec needs 4
    const reram::DeviceParams params;
    EXPECT_DEATH(arch::NetworkMapping(spec, wrong, params, false, 1),
                 "granularity|covers");
}

TEST(Coverage, IntegrateFireChargeIsNonNegative)
{
    reram::IntegrateFire inf;
    EXPECT_DEATH(inf.integrate(-1), "negative charge");
}

} // namespace
} // namespace pipelayer
