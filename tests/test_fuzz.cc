/**
 * @file
 * Randomised-topology property tests: for a family of randomly
 * generated (but valid) CNNs, the whole stack must hold its
 * invariants — spec extraction validates, the mapping is consistent,
 * the schedule executes hazard-free at the paper's buffer sizing, and
 * pipelined training equals sequential training.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace {

/** Build a random valid CNN over 1x12x12 inputs, 4 classes. */
nn::Network
randomNetwork(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("fuzz-" + std::to_string(seed), {1, 12, 12});
    int64_t c = 1, h = 12;

    const int64_t conv_blocks = 1 + static_cast<int64_t>(
        rng.uniformInt(3)); // 1..3
    for (int64_t b = 0; b < conv_blocks; ++b) {
        const int64_t out_c = 2 + static_cast<int64_t>(
            rng.uniformInt(5)); // 2..6
        // Alternate 3x3/pad-1 (shape-preserving) and 3x3/valid.
        const bool padded = rng.uniform() < 0.5 || h < 6;
        const int64_t pad = padded ? 1 : 0;
        if (!padded && h - 2 < 2)
            break;
        net.add(std::make_unique<nn::ConvLayer>(c, out_c, 3, 1, pad,
                                                rng));
        c = out_c;
        h = padded ? h : h - 2;
        if (rng.uniform() < 0.7)
            net.add(std::make_unique<nn::ReluLayer>());
        else
            net.add(std::make_unique<nn::SigmoidLayer>());
        if (h % 2 == 0 && h >= 4 && rng.uniform() < 0.6) {
            if (rng.uniform() < 0.5)
                net.add(std::make_unique<nn::MaxPoolLayer>(2));
            else
                net.add(std::make_unique<nn::AvgPoolLayer>(2));
            h /= 2;
        }
    }
    net.add(std::make_unique<nn::FlattenLayer>());
    const int64_t flat = c * h * h;
    if (rng.uniform() < 0.5) {
        const int64_t hidden = 8 + static_cast<int64_t>(
            rng.uniformInt(17));
        net.add(std::make_unique<nn::InnerProductLayer>(flat, hidden,
                                                        rng));
        net.add(std::make_unique<nn::ReluLayer>());
        net.add(std::make_unique<nn::InnerProductLayer>(hidden, 4, rng));
    } else {
        net.add(std::make_unique<nn::InnerProductLayer>(flat, 4, rng));
    }
    return net;
}

class FuzzTopology : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzTopology, SpecAndMappingInvariantsHold)
{
    nn::Network net = randomNetwork(GetParam());
    const auto spec = workloads::specFromNetwork(net);
    spec.validate();
    EXPECT_EQ(spec.paramCount(), net.parameterCount());
    EXPECT_GE(spec.pipelineDepth(), 2);

    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::balanced(spec);
    const arch::NetworkMapping map(spec, g, params, true, 8);
    EXPECT_GT(map.morphableArrays(), 0);
    EXPECT_GT(map.areaMm2(), 0.0);
    EXPECT_GT(map.cycleTime(), 0.0);

    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 8;
    config.num_images = 24;
    const auto stats = arch::PipelineScheduler(map.depth(), config).run();
    EXPECT_EQ(stats.buffer_violations, 0);
    EXPECT_EQ(stats.structural_hazards, 0);
    EXPECT_EQ(stats.total_cycles,
              arch::PipelineScheduler::analyticTrainingCycles(
                  map.depth(), 24, 8, true));
}

TEST_P(FuzzTopology, PipelinedTrainingEqualsSequential)
{
    nn::Network piped = randomNetwork(GetParam());
    nn::Network serial = randomNetwork(GetParam());

    Rng rng(GetParam() ^ 0xabcdef);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int i = 0; i < 6; ++i) {
        Tensor x({1, 12, 12});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }

    core::PipelinedTrainer trainer(piped);
    const auto result = trainer.trainBatch(inputs, labels, 0.1f);
    const double serial_loss = serial.trainBatch(inputs, labels, 0.1f);
    EXPECT_EQ(result.mean_loss, serial_loss) << piped.describe();

    // Both run the same layer code and update: equal bytes.
    for (size_t l = 0; l < piped.numLayers(); ++l) {
        const auto pa = piped.layer(l).parameters();
        const auto pb = serial.layer(l).parameters();
        for (size_t k = 0; k < pa.size(); ++k) {
            EXPECT_EQ(0, std::memcmp(pa[k]->data(), pb[k]->data(),
                                     static_cast<size_t>(pa[k]->numel()) *
                                         sizeof(float)))
                << piped.describe() << ": layer " << l << " parameter "
                << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTopology,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88, 99, 110));

} // namespace
} // namespace pipelayer
