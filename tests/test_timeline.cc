/**
 * @file
 * Tests of the Fig.-6-style pipeline timeline renderer and the
 * momentum extension of the trainer.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "nn/trainer.hh"
#include "workloads/layer_spec.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace {

workloads::NetworkSpec
chain(int64_t depth)
{
    workloads::NetworkSpec spec;
    spec.name = "chain";
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(8, 8));
    return spec;
}

arch::NetworkMapping
mapFor(const workloads::NetworkSpec &spec, int64_t batch)
{
    static reram::DeviceParams params;
    return arch::NetworkMapping(
        spec, arch::GranularityConfig::naive(spec), params, true, batch);
}

TEST(Timeline, TrainingChartHasAllUnitRows)
{
    const auto spec = chain(3);
    const auto map = mapFor(spec, 4);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 4;
    config.num_images = 4;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();

    // Forward stages, error seed, error-backward units, derivative
    // units and the update row must all appear.
    EXPECT_NE(chart.find("A1 "), std::string::npos);
    EXPECT_NE(chart.find("A3 "), std::string::npos);
    EXPECT_NE(chart.find("ErrL"), std::string::npos);
    EXPECT_NE(chart.find("A22"), std::string::npos);
    EXPECT_NE(chart.find("dW1"), std::string::npos);
    EXPECT_NE(chart.find("Upd"), std::string::npos);
}

TEST(Timeline, TestingChartOmitsBackwardRows)
{
    const auto spec = chain(3);
    const auto map = mapFor(spec, 1);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = 4;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();
    EXPECT_NE(chart.find("A1"), std::string::npos);
    EXPECT_EQ(chart.find("ErrL"), std::string::npos);
    EXPECT_EQ(chart.find("Upd"), std::string::npos);
}

TEST(Timeline, Fig3SingleImageOccupiesExpectedCycles)
{
    // One image through L = 3: forward at A_l in cycle l, ∂W1 in
    // cycle 2L+1 = 7 — the exact Fig. 3 timing.
    const auto spec = chain(3);
    const auto map = mapFor(spec, 1);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 1;
    config.num_images = 1;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();

    std::istringstream is(chart);
    std::string line;
    std::getline(is, line); // header
    std::getline(is, line); // A1 row
    ASSERT_GE(line.size(), 6u);
    // Image 0 occupies A1 at cycle 1 (first column after the label).
    const size_t first_col = line.find_first_of("0");
    EXPECT_NE(first_col, std::string::npos);
}

TEST(Timeline, ClipsLongSchedules)
{
    const auto spec = chain(2);
    const auto map = mapFor(spec, 8);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 8;
    config.num_images = 64;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline(10);
    EXPECT_NE(chart.find("clipped"), std::string::npos);
}

TEST(Timeline, PipelinedChartShowsOverlap)
{
    // In the pipelined chart, stage A1 hosts a different image every
    // cycle within a batch: cells "012345..." appear consecutively.
    const auto spec = chain(2);
    const auto map = mapFor(spec, 6);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 6;
    config.num_images = 6;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();
    EXPECT_NE(chart.find("012345"), std::string::npos);
}

// ---------------------------------------------------------------------
// Momentum
// ---------------------------------------------------------------------

TEST(Momentum, ZeroMomentumMatchesPlainSgd)
{
    Rng rng_a(1), rng_b(1);
    nn::InnerProductLayer a(8, 4, rng_a), b(8, 4, rng_b);
    b.setMomentum(0.0f);

    Rng data_rng(2);
    const Tensor x = Tensor::randn({8}, data_rng);
    const Tensor delta = Tensor::randn({4}, data_rng);
    for (nn::InnerProductLayer *layer : {&a, &b}) {
        layer->zeroGrads();
        layer->accumulateGrads(x, delta);
        layer->applyUpdate(0.1f, 2);
    }
    const Tensor &wa = *a.parameters()[0];
    const Tensor &wb = *b.parameters()[0];
    for (int64_t i = 0; i < wa.numel(); ++i)
        EXPECT_FLOAT_EQ(wa.at(i), wb.at(i));
}

TEST(Momentum, RepeatedGradientsAccelerate)
{
    // With momentum, the second identical update moves the weights
    // further than the first (velocity builds up).
    Rng rng(3);
    nn::InnerProductLayer layer(4, 2, rng);
    layer.setMomentum(0.9f);

    Rng data_rng(4);
    const Tensor x = Tensor::randn({4}, data_rng);
    const Tensor delta = Tensor::randn({2}, data_rng);

    auto step = [&]() {
        const Tensor before = *layer.parameters()[0];
        layer.zeroGrads();
        layer.accumulateGrads(x, delta);
        layer.applyUpdate(0.1f, 1);
        const Tensor &after = *layer.parameters()[0];
        double norm = 0.0;
        for (int64_t i = 0; i < after.numel(); ++i) {
            const double d = after.at(i) - before.at(i);
            norm += d * d;
        }
        return norm;
    };

    const double first = step();
    const double second = step();
    EXPECT_GT(second, first * 1.5);
}

TEST(Momentum, TrainerAppliesConfig)
{
    Rng rng(5);
    nn::Network net("momentum-net", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));

    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 20;
    data.test_per_class = 8;
    auto task = workloads::makeSyntheticTask(data);

    nn::TrainConfig config;
    config.epochs = 6;
    config.batch_size = 8;
    config.learning_rate = 0.05f;
    config.momentum = 0.9f;
    Rng train_rng(6);
    const auto result = nn::train(net, task.train, config, &train_rng);
    EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.7);
}

TEST(MomentumDeath, InvalidCoefficientPanics)
{
    Rng rng(7);
    nn::InnerProductLayer layer(4, 2, rng);
    EXPECT_DEATH(layer.setMomentum(1.0f), "momentum");
    EXPECT_DEATH(layer.setMomentum(-0.1f), "momentum");
}

} // namespace
} // namespace pipelayer
