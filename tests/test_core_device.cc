/**
 * @file
 * Tests of the PipeLayer device API (§5.2) and the mapped layers:
 * functional equivalence with the host network within quantisation
 * error, in-ReRAM training, pipelined training equal to sequential
 * training on the crossbars, and the host/device data-transfer calls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <memory>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/mapped_layer.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "tensor/ops.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace core {
namespace {

/** A tiny CNN+MLP network over 1x8x8 inputs with 4 classes. */
nn::Network
tinyNet(uint64_t seed, nn::LossKind loss = nn::LossKind::Softmax)
{
    Rng rng(seed);
    nn::Network net("tiny", {1, 8, 8}, loss);
    net.add(std::make_unique<nn::ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));
    return net;
}

/** A stride-1 host conv layer holding @p w and @p b. */
std::unique_ptr<nn::ConvLayer>
convHost(const Tensor &w, const Tensor &b, int64_t pad)
{
    Rng init(0); // the initial weights are replaced
    auto host = std::make_unique<nn::ConvLayer>(w.dim(1), w.dim(0),
                                                w.dim(2), 1, pad, init);
    *host->parameters()[0] = w;
    *host->parameters()[1] = b;
    return host;
}

/** A host inner-product layer holding @p w and @p b. */
std::unique_ptr<nn::InnerProductLayer>
ipHost(const Tensor &w, const Tensor &b)
{
    Rng init(0); // the initial weights are replaced
    auto host =
        std::make_unique<nn::InnerProductLayer>(w.dim(1), w.dim(0), init);
    *host->parameters()[0] = w;
    *host->parameters()[1] = b;
    return host;
}

workloads::SyntheticTask
tinyTask()
{
    workloads::SyntheticConfig config;
    config.classes = 4;
    config.image_size = 8;
    config.train_per_class = 12;
    config.test_per_class = 6;
    config.noise = 0.2f;
    config.seed = 99;
    return workloads::makeSyntheticTask(config);
}

TEST(MappedConv, ForwardMatchesHostWithinQuantisation)
{
    Rng rng(1);
    const Tensor w = Tensor::randn({4, 2, 3, 3}, rng, 0.0f, 0.3f);
    const Tensor b = Tensor::randn({4}, rng, 0.0f, 0.1f);
    const auto host = convHost(w, b, /*pad=*/1);
    const MappedConvLayer mapped(reram::DeviceParams(), *host,
                                 /*training=*/false);
    Tensor input({2, 6, 6});
    for (int64_t i = 0; i < input.numel(); ++i)
        input.at(i) = static_cast<float>(rng.uniform());

    const Tensor expect = ops::conv2d(input, w, b, 1, 1);
    const Tensor got = mapped.forward(input);
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got.at(i), expect.at(i),
                    0.01 * (1.0 + std::fabs(expect.at(i))));
}

TEST(MappedConv, BackwardErrorMatchesHost)
{
    Rng rng(2);
    const Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.0f, 0.3f);
    const Tensor b = Tensor::randn({3}, rng, 0.0f, 0.1f);
    const auto host = convHost(w, b, /*pad=*/1);
    const MappedConvLayer mapped(reram::DeviceParams(), *host,
                                 /*training=*/true);
    const Tensor delta = Tensor::randn({3, 5, 5}, rng, 0.0f, 0.5f);
    const Tensor expect = ops::conv2dBackwardInput(delta, w, 1);
    const Tensor got = mapped.backward(delta, {});
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got.at(i), expect.at(i),
                    0.02 * (1.0 + std::fabs(expect.at(i))));
}

TEST(MappedConv, StoredWeightsRoundTrip)
{
    Rng rng(3);
    const Tensor w = Tensor::randn({2, 2, 3, 3}, rng);
    const Tensor b = Tensor::randn({2}, rng);
    const auto host = convHost(w, b, 0);
    const MappedConvLayer mapped(reram::DeviceParams(), *host, false);
    const Tensor stored_w = mapped.storedWeight();
    const Tensor stored_b = mapped.storedBias();
    for (int64_t i = 0; i < w.numel(); ++i)
        EXPECT_NEAR(stored_w.at(i), w.at(i), 1e-3);
    for (int64_t i = 0; i < b.numel(); ++i)
        EXPECT_NEAR(stored_b.at(i), b.at(i), 1e-3);
}

TEST(MappedIp, ForwardMatchesHost)
{
    Rng rng(4);
    const Tensor w = Tensor::randn({5, 9}, rng);
    const Tensor b = Tensor::randn({5}, rng, 0.0f, 0.2f);
    const auto host = ipHost(w, b);
    const MappedIpLayer mapped(reram::DeviceParams(), *host, false);
    Tensor x({9});
    for (int64_t i = 0; i < 9; ++i)
        x(i) = static_cast<float>(rng.uniform());
    Tensor expect = ops::matVec(w, x);
    expect += b;
    const Tensor got = mapped.forward(x);
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got.at(i), expect.at(i),
                    0.01 * (1.0 + std::fabs(expect.at(i))));
}

TEST(MappedIp, BackwardErrorIsTransposedProduct)
{
    Rng rng(5);
    const Tensor w = Tensor::randn({6, 4}, rng);
    const Tensor b = Tensor::randn({6}, rng);
    const auto host = ipHost(w, b);
    const MappedIpLayer mapped(reram::DeviceParams(), *host, true);
    const Tensor delta = Tensor::randn({6}, rng);
    const Tensor expect = ops::matVecT(w, delta);
    const Tensor got = mapped.backward(delta, {});
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got.at(i), expect.at(i),
                    0.02 * (1.0 + std::fabs(expect.at(i))));
}

TEST(MappedIp, UpdateShiftsStoredWeights)
{
    Rng rng(6);
    // Keep weights inside the quantisation range (anchor sets the
    // scale) so the update never clamps at the code limits.
    Tensor w = Tensor::randn({3, 3}, rng, 0.0f, 0.3f);
    w(0, 0) = 2.0f;
    const Tensor b = Tensor::randn({3}, rng);
    const auto host = ipHost(w, b);
    MappedIpLayer mapped(reram::DeviceParams(), *host, true);
    *host->gradients()[0] = Tensor({3, 3}, 1.0f);
    *host->gradients()[1] = Tensor({3}, 1.0f);
    const Tensor before = mapped.storedWeight();
    mapped.applyUpdate(/*lr=*/0.4f, /*batch_size=*/4);
    const Tensor after = mapped.storedWeight();
    for (int64_t i = 0; i < after.numel(); ++i)
        EXPECT_LT(after.at(i), before.at(i));
}

/** Geometry sweep: mapped conv forward across kernel/pad variants. */
class MappedConvSweep
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>>
{
};

TEST_P(MappedConvSweep, ForwardMatchesHost)
{
    const auto [kernel, pad] = GetParam();
    Rng rng(static_cast<uint64_t>(kernel * 10 + pad));
    const Tensor w =
        Tensor::randn({3, 2, kernel, kernel}, rng, 0.0f, 0.3f);
    const Tensor b = Tensor::randn({3}, rng, 0.0f, 0.1f);
    const auto host = convHost(w, b, pad);
    const MappedConvLayer mapped(reram::DeviceParams(), *host, false);
    Tensor input({2, 7, 7});
    for (int64_t i = 0; i < input.numel(); ++i)
        input.at(i) = static_cast<float>(rng.uniform());
    const Tensor expect = ops::conv2d(input, w, b, 1, pad);
    const Tensor got = mapped.forward(input);
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got.at(i), expect.at(i),
                    0.02 * (1.0 + std::fabs(expect.at(i))));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MappedConvSweep,
    ::testing::Values(std::make_pair<int64_t, int64_t>(1, 0),
                      std::make_pair<int64_t, int64_t>(3, 0),
                      std::make_pair<int64_t, int64_t>(3, 1),
                      std::make_pair<int64_t, int64_t>(5, 2)));

TEST(Device, CopyRoundTrip)
{
    PipeLayerDevice dev{PipeLayerConfig{}};
    Rng rng(7);
    const Tensor t = Tensor::randn({3, 3}, rng);
    dev.Copy_to_PL("input", t);
    const Tensor back = dev.Copy_to_CPU("input");
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(back.at(i), t.at(i));
}

TEST(DeviceDeath, CopyUnknownNameIsFatal)
{
    PipeLayerDevice dev{PipeLayerConfig{}};
    EXPECT_EXIT(dev.Copy_to_CPU("nope"), ::testing::ExitedWithCode(1),
                "no tensor");
}

TEST(Device, ForwardMatchesHostNetwork)
{
    nn::Network net = tinyNet(8);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    Rng rng(9);
    Tensor x({1, 8, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.uniform());

    const Tensor host = net.infer(x);
    const Tensor device = dev.forward(x);
    ASSERT_EQ(host.shape(), device.shape());
    for (int64_t i = 0; i < host.numel(); ++i)
        EXPECT_NEAR(device.at(i), host.at(i),
                    0.05 * (1.0 + std::fabs(host.at(i))));
}

TEST(Device, PredictionsMostlyAgreeWithHost)
{
    nn::Network net = tinyNet(10);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    auto task = tinyTask();
    int agree = 0;
    const int n = static_cast<int>(task.test.size());
    for (int i = 0; i < n; ++i) {
        if (dev.predict(task.test.inputs[static_cast<size_t>(i)]) ==
            net.predict(task.test.inputs[static_cast<size_t>(i)]))
            ++agree;
    }
    EXPECT_GE(agree, n * 9 / 10);
}

/** Run @p call and expect a ConfigError whose message holds @p what. */
template <typename Fn>
void
expectConfigError(Fn &&call, const std::string &what)
{
    try {
        call();
        ADD_FAILURE() << "no ConfigError; wanted '" << what << "'";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(Device, NonFiniteImagesAreConfigErrorsNamingThem)
{
    // Every API entry that drives the crossbars checks its images on
    // the calling thread, before any of them runs: the arrays keep
    // their activity and weights.
    nn::Network net = tinyNet(12);
    PipeLayerConfig config;
    config.batch_size = 2;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();
    const auto task = tinyTask();
    const reram::ArrayActivity before = dev.totalActivity();
    const std::vector<Tensor> weights = dev.storedParameters();
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        SCOPED_TRACE("value " + std::to_string(bad));
        Tensor x = task.test.inputs[0];
        x.at(5) = bad;
        expectConfigError([&] { dev.forward(x); },
                          "forward: the input image holds");
        expectConfigError([&] { dev.predict(x); },
                          "predict: the input image holds");
        nn::Dataset test = task.test.head(4);
        test.inputs[2] = x;
        expectConfigError([&] { dev.Test(test); },
                          "Test: image 2 holds");
        nn::Dataset train = task.train.head(4);
        train.inputs[3] = x;
        expectConfigError([&] { dev.Train(train, 1); },
                          "Train: image 3 holds");
    }
    const reram::ArrayActivity after = dev.totalActivity();
    EXPECT_EQ(after.input_spikes, before.input_spikes);
    EXPECT_EQ(after.write_pulses, before.write_pulses);
    EXPECT_EQ(after.mvm_ops, before.mvm_ops);
    const std::vector<Tensor> kept = dev.storedParameters();
    ASSERT_EQ(kept.size(), weights.size());
    for (size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(0, std::memcmp(kept[i].data(), weights[i].data(),
                                 static_cast<size_t>(kept[i].numel()) *
                                     sizeof(float)));
}

TEST(Device, NonFiniteWeightFailsWeightLoadNamingIt)
{
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        nn::Network net = tinyNet(13);
        // ip1's (4, 64) weights plus the bias column: element 7 of
        // output row 0.
        net.layer(4).parameters()[0]->at(7) = bad;
        PipeLayerDevice dev{PipeLayerConfig{}};
        dev.Topology_set(net);
        expectConfigError([&] { dev.Weight_load(); },
                          "crossbar weight (0, 7) of a 4 x 65 matrix");
    }
}

TEST(Device, TrainImprovesAccuracy)
{
    nn::Network net = tinyNet(11);
    PipeLayerConfig config;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    auto task = tinyTask();
    const DeviceTestStats before = dev.Test(task.test);
    const DeviceTrainStats stats = dev.Train(task.train, /*epochs=*/6);
    const DeviceTestStats after = dev.Test(task.test);

    EXPECT_GT(stats.batches_run, 0);
    ASSERT_GE(stats.epoch_loss.size(), 2u);
    EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
    EXPECT_GT(after.accuracy, before.accuracy);
    EXPECT_GT(after.accuracy, 0.6);
}

TEST(Device, TrainingTracksHostTraining)
{
    // Training *through the crossbars* (16-bit weights, quantised
    // activations) should track float host training on the same data:
    // the resolution study says 16-bit is indistinguishable.
    nn::Network host_net = tinyNet(40);
    nn::Network device_net = tinyNet(40);
    auto task = tinyTask();

    PipeLayerConfig config;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    PipeLayerDevice dev(config);
    dev.Topology_set(device_net);
    dev.Weight_load();
    dev.Train(task.train, /*epochs=*/4);

    nn::TrainConfig host_config;
    host_config.epochs = 4;
    host_config.batch_size = 8;
    host_config.learning_rate = 0.1f;
    // No generator: the device's sample order.
    nn::train(host_net, task.train, host_config);

    const double device_acc = dev.Test(task.test).accuracy;
    EXPECT_NEAR(device_acc,
                host_net.accuracy(task.test.inputs, task.test.labels),
                0.25);
}

TEST(Device, PipelineSetControlsTimingOnly)
{
    nn::Network net = tinyNet(12);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();
    EXPECT_TRUE(dev.pipelineEnabled());

    const auto piped = dev.timingReport(sim::Phase::Testing, 64);
    dev.Pipeline_Set(false);
    EXPECT_FALSE(dev.pipelineEnabled());
    const auto serial = dev.timingReport(sim::Phase::Testing, 64);
    EXPECT_LT(piped.total_time, serial.total_time);

    // Functional results are unaffected by the pipeline switch.
    Rng rng(13);
    Tensor x({1, 8, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.uniform());
    dev.Pipeline_Set(true);
    const Tensor a = dev.forward(x);
    dev.Pipeline_Set(false);
    const Tensor b = dev.forward(x);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(Device, ArrayCountReflectsTrainingMode)
{
    nn::Network net_a = tinyNet(14);
    nn::Network net_b = tinyNet(14);
    PipeLayerConfig testing;
    testing.training = false;
    PipeLayerConfig training;
    training.training = true;

    PipeLayerDevice dev_test(testing);
    dev_test.Topology_set(net_a);
    dev_test.Weight_load();
    PipeLayerDevice dev_train(training);
    dev_train.Topology_set(net_b);
    dev_train.Weight_load();

    EXPECT_GT(dev_test.arrayCount(), 0);
    EXPECT_GT(dev_train.arrayCount(), dev_test.arrayCount());
}

TEST(DeviceDeath, TrainWithoutWeightLoadPanics)
{
    PipeLayerDevice dev{PipeLayerConfig{}};
    auto task = tinyTask();
    EXPECT_DEATH(dev.Train(task.train, 1), "Weight_load");
}

TEST(Device, TrainWithL2Loss)
{
    nn::Network net = tinyNet(16, nn::LossKind::L2);
    PipeLayerConfig config;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    auto task = tinyTask();
    const auto stats = dev.Train(task.train, /*epochs=*/6);
    ASSERT_GE(stats.epoch_loss.size(), 2u);
    EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
    // L2 training converges more slowly than softmax; well above the
    // 4-class chance level (0.25) is enough here.
    EXPECT_GT(dev.Test(task.test).accuracy, 0.4);
}

TEST(Device, MildVariationPreservesAccuracy)
{
    nn::Network net = tinyNet(17);
    PipeLayerConfig clean_config;
    clean_config.training = false;
    PipeLayerConfig noisy_config;
    noisy_config.training = false;
    noisy_config.device.write_noise_sigma = 0.01;

    PipeLayerDevice clean(clean_config);
    clean.Topology_set(net);
    clean.Weight_load();
    PipeLayerDevice noisy(noisy_config);
    noisy.Topology_set(net);
    noisy.Weight_load();

    auto task = tinyTask();
    const double clean_acc = clean.Test(task.test).accuracy;
    const double noisy_acc = noisy.Test(task.test).accuracy;
    EXPECT_GT(noisy_acc, clean_acc - 0.25);
}

TEST(Device, ActivityAndMeasuredEnergyAccumulate)
{
    nn::Network net = tinyNet(20);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    const auto after_load = dev.totalActivity();
    EXPECT_GT(after_load.write_pulses, 0); // programming cost
    EXPECT_EQ(after_load.mvm_ops, 0);

    Rng rng(21);
    Tensor x({1, 8, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.uniform());
    const double e0 = dev.measuredComputeEnergy();
    (void)dev.forward(x);
    const auto after_fwd = dev.totalActivity();
    EXPECT_GT(after_fwd.mvm_ops, 0);
    EXPECT_GT(after_fwd.input_spikes, 0);
    EXPECT_GT(dev.measuredComputeEnergy(), e0);
}

TEST(Device, TrainKeepsRetiredBackwardActivity)
{
    // A weight update rewrites every forward cell and replaces the
    // backward arrays with freshly programmed ones.  The replaced
    // arrays' history stays in totalActivity(), so one single-batch
    // Train adds exactly Weight_load's write pulses.
    nn::Network net = tinyNet(24);
    PipeLayerConfig config;
    config.batch_size = 64; // the 48 training images are one batch
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();
    const auto loaded = dev.totalActivity();
    ASSERT_GT(loaded.write_pulses, 0);

    auto task = tinyTask();
    ASSERT_LE(task.train.size(), 64u);
    const DeviceTrainStats stats = dev.Train(task.train, 1);
    ASSERT_EQ(stats.batches_run, 1);
    const auto trained = dev.totalActivity();
    EXPECT_EQ(trained.write_pulses - loaded.write_pulses,
              loaded.write_pulses);
    EXPECT_GT(trained.mvm_ops, 0);
}

TEST(Device, MeasuredEnergyTracksAnalyticOrderOfMagnitude)
{
    // One functional inference's measured array energy should land
    // within an order of magnitude of the analytic per-image forward
    // energy (the models share the per-spike constants but count
    // activity differently: measured skips all-zero row chunks).
    nn::Network net = tinyNet(22);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    const double before = dev.measuredComputeEnergy();
    Rng rng(23);
    Tensor x({1, 8, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.uniform());
    (void)dev.forward(x);
    const double measured = dev.measuredComputeEnergy() - before;

    const auto report = dev.timingReport(sim::Phase::Testing, 1);
    const double analytic = report.energy.forward_compute;
    EXPECT_GT(measured, analytic / 10.0);
    EXPECT_LT(measured, analytic * 10.0);
}

/** A sigmoid MLP over 1x8x8 inputs. */
nn::Network
sigmoidNet(uint64_t seed, nn::LossKind loss = nn::LossKind::Softmax)
{
    Rng rng(seed);
    nn::Network net("sigmoid-mlp", {1, 8, 8}, loss);
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 16, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(16, 4, rng));
    return net;
}

TEST(Device, LutSigmoidTracksExactSigmoid)
{
    nn::Network net = sigmoidNet(30);
    PipeLayerConfig lut_config;
    lut_config.training = false;
    lut_config.lut_sigmoid = true;
    lut_config.sigmoid_lut_bits = 10;
    PipeLayerConfig exact_config;
    exact_config.training = false;
    exact_config.lut_sigmoid = false;

    PipeLayerDevice lut_dev(lut_config);
    lut_dev.Topology_set(net);
    lut_dev.Weight_load();
    PipeLayerDevice exact_dev(exact_config);
    exact_dev.Topology_set(net);
    exact_dev.Weight_load();

    Rng rng(31);
    Tensor x({1, 8, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.uniform());
    const Tensor a = lut_dev.forward(x);
    const Tensor b = exact_dev.forward(x);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_NEAR(a.at(i), b.at(i), 0.05 * (1.0 + std::fabs(b.at(i))));
}

TEST(Device, TrainsThroughLutSigmoid)
{
    nn::Network net = sigmoidNet(32);
    PipeLayerConfig config;
    config.batch_size = 8;
    config.learning_rate = 0.3f; // sigmoids saturate; push harder
    config.lut_sigmoid = true;
    PipeLayerDevice dev(config);
    dev.Topology_set(net);
    dev.Weight_load();

    auto task = tinyTask();
    const auto stats = dev.Train(task.train, /*epochs=*/8);
    EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
    EXPECT_GT(dev.Test(task.test).accuracy, 0.4);
}

/** FNV-1a-64 over the raw float bytes of @p tensors, in order. */
uint64_t
tensorHash(const std::vector<Tensor> &tensors)
{
    uint64_t h = 14695981039346656037ull;
    for (const Tensor &t : tensors) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(t.data());
        const size_t n = static_cast<size_t>(t.numel()) * sizeof(float);
        for (size_t k = 0; k < n; ++k) {
            h ^= bytes[k];
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** The four activity counters of @p got equal those of @p want. */
void
expectSameActivity(const reram::ArrayActivity &got,
                   const reram::ArrayActivity &want)
{
    EXPECT_EQ(got.input_spikes, want.input_spikes);
    EXPECT_EQ(got.write_pulses, want.write_pulses);
    EXPECT_EQ(got.mvm_ops, want.mvm_ops);
    EXPECT_EQ(got.if_fires, want.if_fires);
}

/**
 * Train a fresh net from @p make through the crossbars for two epochs
 * at one and at four threads; the per-epoch losses, the weights
 * stored in the arrays and the arrays' activity counters must
 * reproduce their pins exactly.
 */
template <typename Make>
void
expectDevicePinned(Make make, const PipeLayerConfig &config,
                   const std::vector<double> &epoch_loss,
                   uint64_t stored_hash,
                   const reram::ArrayActivity &activity)
{
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        nn::Network net = make();
        PipeLayerDevice dev(config);
        dev.Topology_set(net);
        dev.Weight_load();
        auto task = tinyTask();
        const DeviceTrainStats stats = dev.Train(task.train, 2);
        ASSERT_EQ(stats.epoch_loss.size(), epoch_loss.size());
        for (size_t e = 0; e < epoch_loss.size(); ++e) {
            EXPECT_EQ(stats.epoch_loss[e], epoch_loss[e])
                << std::setprecision(17) << stats.epoch_loss[e];
        }
        EXPECT_EQ(tensorHash(dev.storedParameters()), stored_hash)
            << std::hex << tensorHash(dev.storedParameters());
        expectSameActivity(dev.totalActivity(), activity);
    }
    setThreadCount(saved);
}

PipeLayerConfig
pinnedConfig(bool lut_sigmoid)
{
    PipeLayerConfig config;
    config.batch_size = 8;
    config.learning_rate = 0.2f;
    config.lut_sigmoid = lut_sigmoid;
    return config;
}

TEST(DevicePinned, ConvNetSoftmax)
{
    expectDevicePinned([] { return tinyNet(50); }, pinnedConfig(true),
                       {2.1474653348645867, 1.3789881441805918},
                       0xc33acc11fb6b7b8aull,
                       {5706552, 273312, 76416, 174760837511});
}

TEST(DevicePinned, SigmoidMlpSoftmaxLut)
{
    expectDevicePinned([] { return sigmoidNet(51); }, pinnedConfig(true),
                       {1.610387405436944, 1.5888448851190722},
                       0xad5b97c0e0dfba22ull,
                       {789632, 946816, 3840, 70801156626});
}

TEST(DevicePinned, SigmoidMlpSoftmaxExact)
{
    expectDevicePinned([] { return sigmoidNet(51); },
                       pinnedConfig(false),
                       {1.6094839908206708, 1.5889573083302604},
                       0xde9acc4129183786ull,
                       {788320, 946816, 3840, 70773305418});
}

TEST(DevicePinned, SigmoidMlpL2Lut)
{
    expectDevicePinned([] { return sigmoidNet(52, nn::LossKind::L2); },
                       pinnedConfig(true),
                       {1.06701189905911, 0.44490302738688575},
                       0x686838aa98bac753ull,
                       {783536, 946816, 3840, 69936138285});
}

TEST(DevicePinned, SigmoidMlpL2Exact)
{
    expectDevicePinned([] { return sigmoidNet(52, nn::LossKind::L2); },
                       pinnedConfig(false),
                       {1.0664995904057546, 0.44662490740896493},
                       0x78c5de809d47068aull,
                       {781040, 946816, 3840, 69887224340});
}

/**
 * Write noise and stuck cells: every update redraws the noise of every
 * programmed cell, so these pins guard the order of the draws.
 */
TEST(DevicePinned, ConvNetWithVariation)
{
    PipeLayerConfig config = pinnedConfig(true);
    config.device.write_noise_sigma = 0.02;
    config.device.stuck_at_fault_rate = 0.01;
    expectDevicePinned([] { return tinyNet(50); }, config,
                       {2.0904705417863996, 1.3971080404402592},
                       0x3f4d55e9e64c2dabull,
                       {5714768, 273312, 76416, 283909718678});
}

/**
 * The paper's central claim on ReRAM numerics: one epoch of B = 8
 * through PipelinedTrainer's Fig. 6 schedule on one device's crossbar
 * network trains exactly what Network::trainBatch trains on an
 * identical device's, at one and at four threads.
 */
template <typename Make>
void
expectPipelinedMatchesSequential(Make make)
{
    const PipeLayerConfig config = pinnedConfig(true);
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        nn::Network piped_host = make();
        nn::Network sequential_host = make();
        PipeLayerDevice piped(config);
        piped.Topology_set(piped_host);
        piped.Weight_load();
        PipeLayerDevice sequential(config);
        sequential.Topology_set(sequential_host);
        sequential.Weight_load();
        PipelinedTrainer trainer(piped.network());

        const nn::Dataset train = tinyTask().train;
        const size_t bsz = static_cast<size_t>(config.batch_size);
        for (size_t start = 0; start < train.size(); start += bsz) {
            const auto first = static_cast<ptrdiff_t>(start);
            const auto last = static_cast<ptrdiff_t>(
                std::min(start + bsz, train.size()));
            const std::vector<Tensor> inputs(train.inputs.begin() + first,
                                             train.inputs.begin() + last);
            const std::vector<int64_t> labels(
                train.labels.begin() + first, train.labels.begin() + last);
            EXPECT_EQ(trainer.trainBatch(inputs, labels,
                                         config.learning_rate)
                          .mean_loss,
                      sequential.network().trainBatch(
                          inputs, labels, config.learning_rate))
                << "batch at image " << start;
        }
        EXPECT_EQ(tensorHash(piped.storedParameters()),
                  tensorHash(sequential.storedParameters()));
        EXPECT_EQ(piped.Test(train).accuracy,
                  sequential.Test(train).accuracy);
        expectSameActivity(piped.totalActivity(),
                           sequential.totalActivity());
    }
    setThreadCount(saved);
}

TEST(DevicePipelined, ConvNetMatchesSequential)
{
    expectPipelinedMatchesSequential([] { return tinyNet(60); });
}

TEST(DevicePipelined, LutSigmoidMlpMatchesSequential)
{
    expectPipelinedMatchesSequential([] { return sigmoidNet(61); });
}

TEST(Device, TopologySetResetsStages)
{
    nn::Network net_a = tinyNet(18);
    nn::Network net_b = tinyNet(19);
    PipeLayerConfig config;
    config.training = false;
    PipeLayerDevice dev(config);
    dev.Topology_set(net_a);
    dev.Weight_load();
    EXPECT_GT(dev.arrayCount(), 0);
    dev.Topology_set(net_b); // invalidates the programmed arrays
    EXPECT_EQ(dev.arrayCount(), 0);
    dev.Weight_load();
    EXPECT_GT(dev.arrayCount(), 0);
}

TEST(DeviceDeath, StridedConvIsRejected)
{
    Rng rng(15);
    nn::Network net("strided", {3, 9, 9});
    net.add(std::make_unique<nn::ConvLayer>(3, 4, 3, /*stride=*/2, 0,
                                            rng));
    PipeLayerDevice dev{PipeLayerConfig{}};
    dev.Topology_set(net);
    EXPECT_DEATH(dev.Weight_load(), "stride");
}

} // namespace
} // namespace core
} // namespace pipelayer
