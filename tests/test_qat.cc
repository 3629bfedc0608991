/**
 * @file
 * Tests of quantisation-aware training with analog master
 * accumulation (quant/qat.hh) — the Fig. 13 methodology.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <memory>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "quant/qat.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace quant {
namespace {

nn::Network
makeMlp(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("qat-mlp", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

workloads::SyntheticTask
makeTask()
{
    workloads::SyntheticConfig config;
    config.classes = 4;
    config.image_size = 8;
    config.train_per_class = 25;
    config.test_per_class = 10;
    config.noise = 0.25f;
    config.seed = 31;
    return workloads::makeSyntheticTask(config);
}

TEST(Qat, FloatModeLearnsTask)
{
    nn::Network net = makeMlp(1);
    auto task = makeTask();
    QatConfig config;
    config.bits = 0;
    config.epochs = 10;
    Rng rng(2);
    const QatResult result =
        trainQuantized(net, task.train, task.test, config, rng);
    EXPECT_GT(result.test_accuracy, 0.8);
}

TEST(Qat, ModerateResolutionMatchesFloat)
{
    auto task = makeTask();
    QatConfig config;
    config.epochs = 10;
    config.bits = 0;
    Rng rng_a(3);
    nn::Network float_net = makeMlp(4);
    const double float_acc =
        trainQuantized(float_net, task.train, task.test, config, rng_a)
            .test_accuracy;

    config.bits = 8;
    Rng rng_b(3);
    nn::Network q_net = makeMlp(4);
    const double q_acc =
        trainQuantized(q_net, task.train, task.test, config, rng_b)
            .test_accuracy;
    EXPECT_GT(q_acc, float_acc - 0.1);
}

TEST(Qat, ExtremeQuantisationDegrades)
{
    // A noisier, 8-class task: 2-bit readable weights (one positive
    // level!) cannot match 8-bit accuracy there.
    workloads::SyntheticConfig data;
    data.classes = 8;
    data.image_size = 8;
    data.train_per_class = 25;
    data.test_per_class = 10;
    data.noise = 0.5f;
    data.seed = 77;
    auto task = workloads::makeSyntheticTask(data);

    auto build = [](uint64_t seed) {
        Rng rng(seed);
        nn::Network net("qat-hard", {1, 8, 8});
        net.add(std::make_unique<nn::FlattenLayer>());
        net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
        net.add(std::make_unique<nn::ReluLayer>());
        net.add(std::make_unique<nn::InnerProductLayer>(24, 8, rng));
        return net;
    };

    QatConfig config;
    config.epochs = 10;

    config.bits = 8;
    Rng rng_a(5);
    nn::Network fine = build(6);
    const QatResult fine_result =
        trainQuantized(fine, task.train, task.test, config, rng_a);

    config.bits = 2;
    Rng rng_b(5);
    nn::Network coarse = build(6);
    const QatResult coarse_result =
        trainQuantized(coarse, task.train, task.test, config, rng_b);

    EXPECT_LE(coarse_result.test_accuracy, fine_result.test_accuracy);
    EXPECT_GT(coarse_result.final_loss, fine_result.final_loss);
}

TEST(Qat, MasterAccumulatesSubLsbUpdates)
{
    // The defining property of the analog-master model: updates far
    // smaller than one readable LSB still make progress because they
    // accumulate on the conductances.  Plain round-to-readable
    // training would be stuck at the initial weights.
    nn::Network net = makeMlp(7);
    auto task = makeTask();
    QatConfig config;
    config.bits = 4;
    config.epochs = 10;
    config.learning_rate = 0.05f; // small steps, well below one LSB
    Rng rng(8);
    const QatResult result =
        trainQuantized(net, task.train, task.test, config, rng);
    // 4 classes, chance = 0.25; the network must have actually moved.
    EXPECT_GT(result.test_accuracy, 0.6);
}

TEST(Qat, DeterministicGivenSeeds)
{
    auto run = [] {
        nn::Network net = makeMlp(9);
        auto task = makeTask();
        QatConfig config;
        config.bits = 4;
        config.epochs = 4;
        Rng rng(10);
        return trainQuantized(net, task.train, task.test, config, rng)
            .test_accuracy;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Qat, NetworkLeftHoldingQuantisedWeights)
{
    nn::Network net = makeMlp(11);
    auto task = makeTask();
    QatConfig config;
    config.bits = 3;
    config.epochs = 2;
    Rng rng(12);
    trainQuantized(net, task.train, task.test, config, rng);

    // Every weight must sit on a 3-bit grid: at most 7 distinct
    // magnitudes (plus zero) per tensor.
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (Tensor *p : net.layer(l).parameters()) {
            std::vector<float> values;
            for (int64_t i = 0; i < p->numel(); ++i)
                values.push_back(std::fabs(p->at(i)));
            std::sort(values.begin(), values.end());
            values.erase(std::unique(values.begin(), values.end()),
                         values.end());
            EXPECT_LE(values.size(), 4u); // 0 + 3 positive levels
        }
    }
}

/** FNV-1a-64 over every parameter's raw float bytes, in layer order. */
uint64_t
paramHash(nn::Network &net)
{
    uint64_t h = 14695981039346656037ull;
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (const Tensor *p : net.layer(l).parameters()) {
            const auto *bytes =
                reinterpret_cast<const unsigned char *>(p->data());
            const size_t n = static_cast<size_t>(p->numel()) *
                sizeof(float);
            for (size_t k = 0; k < n; ++k) {
                h ^= bytes[k];
                h *= 1099511628211ull;
            }
        }
    }
    return h;
}

/**
 * Three epochs of trainQuantized on the MLP at @p bits, at one and at
 * four threads: the deployed weights it leaves and its held-out
 * accuracy must reproduce their pins bit for bit.
 */
void
expectQatPinned(int bits, uint64_t param_hash, double test_accuracy)
{
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        nn::Network net = makeMlp(13);
        const auto task = makeTask();
        QatConfig config;
        config.bits = bits;
        config.epochs = 3;
        Rng rng(14);
        const QatResult result =
            trainQuantized(net, task.train, task.test, config, rng);
        EXPECT_EQ(paramHash(net), param_hash)
            << std::hex << paramHash(net);
        EXPECT_EQ(result.test_accuracy, test_accuracy)
            << std::setprecision(17) << result.test_accuracy;
    }
    setThreadCount(saved);
}

TEST(QatPinned, Float)
{
    expectQatPinned(0, 0xd7373c72b766f1f7ull, 0.975);
}

TEST(QatPinned, FourBit)
{
    expectQatPinned(4, 0x5be53c4bc64781daull, 0.95);
}

TEST(QatPinned, TwoBit)
{
    expectQatPinned(2, 0xadd896d5a7c7b40full, 0.55);
}

} // namespace
} // namespace quant
} // namespace pipelayer
