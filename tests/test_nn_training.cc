/**
 * @file
 * Integration tests of the functional training substrate: networks,
 * batched SGD, convergence on synthetic tasks.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace nn {
namespace {

/** A small MLP over 1x8x8 inputs. */
Network
smallMlp(Rng &rng)
{
    Network net("mlp", {1, 8, 8});
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<InnerProductLayer>(64, 32, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<InnerProductLayer>(32, 4, rng));
    return net;
}

/** A small CNN over 1x8x8 inputs. */
Network
smallCnn(Rng &rng)
{
    Network net("cnn", {1, 8, 8});
    net.add(std::make_unique<ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<MaxPoolLayer>(2));
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<InnerProductLayer>(4 * 4 * 4, 4, rng));
    return net;
}

workloads::SyntheticTask
smallTask()
{
    workloads::SyntheticConfig config;
    config.classes = 4;
    config.image_size = 8;
    config.train_per_class = 30;
    config.test_per_class = 10;
    config.noise = 0.25f;
    config.seed = 77;
    return workloads::makeSyntheticTask(config);
}

TEST(Network, ShapePropagationAndDescribe)
{
    Rng rng(1);
    Network net = smallCnn(rng);
    EXPECT_EQ(net.outputShape(), (Shape{4}));
    EXPECT_EQ(net.numLayers(), 5u);
    EXPECT_NE(net.describe().find("conv3x4"), std::string::npos);
    EXPECT_EQ(net.layerInputShape(0), (Shape{1, 8, 8}));
    EXPECT_EQ(net.layerInputShape(3), (Shape{4, 4, 4}));
}

TEST(Network, ParameterCount)
{
    Rng rng(2);
    Network net = smallMlp(rng);
    EXPECT_EQ(net.parameterCount(), 64 * 32 + 32 + 32 * 4 + 4);
}

TEST(Network, ForwardInferAgree)
{
    // A training-mode pass (every layer fills its Saved) and infer()
    // compute the same output.
    Rng rng(3);
    Network net = smallCnn(rng);
    const Tensor x = Tensor::randn({1, 8, 8}, rng);
    Tensor a = x;
    std::vector<Saved> saved(net.numLayers());
    for (size_t l = 0; l < net.numLayers(); ++l)
        a = net.layer(l).forward(a, &saved[l]);
    const Tensor b = net.infer(x);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(Training, MlpLossDecreases)
{
    Rng rng(4);
    Network net = smallMlp(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 8;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(5);
    const TrainResult result = train(net, task.train, config, &train_rng);
    ASSERT_EQ(result.epoch_loss.size(), 8u);
    EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front() * 0.7);
}

TEST(Training, MlpLearnsTask)
{
    Rng rng(6);
    Network net = smallMlp(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 12;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(7);
    train(net, task.train, config, &train_rng);
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.8);
}

TEST(Training, CnnLearnsTask)
{
    Rng rng(8);
    Network net = smallCnn(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 12;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(9);
    train(net, task.train, config, &train_rng);
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.8);
}

TEST(Training, BatchAveragingMatchesManualUpdate)
{
    // trainBatch must apply W -= lr * (1/B) Σ grads: two identical
    // samples in a batch behave like one sample with batch 1.
    Rng rng_a(10), rng_b(10);
    Network net_a("a", {1, 8, 8});
    net_a.add(std::make_unique<FlattenLayer>());
    net_a.add(std::make_unique<InnerProductLayer>(64, 4, rng_a));
    Network net_b("b", {1, 8, 8});
    net_b.add(std::make_unique<FlattenLayer>());
    net_b.add(std::make_unique<InnerProductLayer>(64, 4, rng_b));

    Rng data_rng(11);
    const Tensor x = Tensor::randn({1, 8, 8}, data_rng);

    net_a.trainBatch({x, x}, {1, 1}, 0.1f);
    net_b.trainBatch({x}, {1}, 0.1f);

    auto params_a = net_a.layer(1).parameters();
    auto params_b = net_b.layer(1).parameters();
    for (int64_t i = 0; i < params_a[0]->numel(); ++i)
        EXPECT_NEAR(params_a[0]->at(i), params_b[0]->at(i), 1e-6);
}

TEST(Training, DeterministicGivenSeeds)
{
    auto run = [] {
        Rng rng(12);
        Network net = smallMlp(rng);
        auto task = smallTask();
        TrainConfig config;
        config.epochs = 3;
        config.batch_size = 8;
        Rng train_rng(13);
        return train(net, task.train, config, &train_rng).epoch_loss;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Dataset, ShuffleKeepsPairsAligned)
{
    auto task = smallTask();
    // Tag each input with its label in pixel 0 to detect misalignment.
    for (size_t i = 0; i < task.train.size(); ++i)
        task.train.inputs[i].at(0) =
            static_cast<float>(task.train.labels[i]);
    Rng rng(14);
    task.train.shuffle(rng);
    for (size_t i = 0; i < task.train.size(); ++i)
        EXPECT_EQ(static_cast<int64_t>(task.train.inputs[i].at(0)),
                  task.train.labels[i]);
}

TEST(Dataset, HeadTakesPrefix)
{
    auto task = smallTask();
    const Dataset head = task.train.head(5);
    EXPECT_EQ(head.size(), 5u);
    EXPECT_EQ(head.labels[0], task.train.labels[0]);
}

TEST(SyntheticData, DeterministicAndBounded)
{
    const auto a = workloads::makeStudyTask();
    const auto b = workloads::makeStudyTask();
    ASSERT_EQ(a.train.size(), b.train.size());
    for (int64_t i = 0; i < a.train.inputs[0].numel(); ++i) {
        EXPECT_FLOAT_EQ(a.train.inputs[0].at(i), b.train.inputs[0].at(i));
        EXPECT_GE(a.train.inputs[0].at(i), 0.0f);
        EXPECT_LE(a.train.inputs[0].at(i), 1.0f);
    }
}

TEST(SyntheticData, ClassesAreSeparable)
{
    // Nearest-prototype classification on the noiseless means should
    // be far above chance, otherwise the Fig. 13 study is meaningless.
    const auto task = workloads::makeStudyTask();
    // Compute class means from train, classify test by nearest mean.
    const int64_t classes = task.config.classes;
    const int64_t numel = task.train.inputs[0].numel();
    std::vector<std::vector<double>> means(
        static_cast<size_t>(classes),
        std::vector<double>(static_cast<size_t>(numel), 0.0));
    std::vector<int64_t> counts(static_cast<size_t>(classes), 0);
    for (size_t i = 0; i < task.train.size(); ++i) {
        const auto c = static_cast<size_t>(task.train.labels[i]);
        ++counts[c];
        for (int64_t j = 0; j < numel; ++j)
            means[c][static_cast<size_t>(j)] += task.train.inputs[i].at(j);
    }
    for (size_t c = 0; c < means.size(); ++c)
        for (auto &v : means[c])
            v /= static_cast<double>(counts[c]);

    int64_t correct = 0;
    for (size_t i = 0; i < task.test.size(); ++i) {
        double best = 1e30;
        int64_t best_c = -1;
        for (int64_t c = 0; c < classes; ++c) {
            double dist = 0.0;
            for (int64_t j = 0; j < numel; ++j) {
                const double d = task.test.inputs[i].at(j) -
                                 means[static_cast<size_t>(c)]
                                      [static_cast<size_t>(j)];
                dist += d * d;
            }
            if (dist < best) {
                best = dist;
                best_c = c;
            }
        }
        correct += best_c == task.test.labels[i] ? 1 : 0;
    }
    const double accuracy = static_cast<double>(correct) /
                            static_cast<double>(task.test.size());
    EXPECT_GT(accuracy, 0.9);
}

/** FNV-1a-64 over every parameter's raw float bytes, in layer order. */
uint64_t
paramHash(Network &net)
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

/** One pinned trainBatch: the mean loss and the weights it leaves. */
struct PinnedStep
{
    double loss;
    uint64_t param_hash;
};

/**
 * Run trainBatch over consecutive @p batch-image slices of @p data,
 * one per pin, on a fresh net from @p make at one to four threads
 * (uneven image chunks, and the in-place first chunk beside later
 * chunks' partials); every step must reproduce its pinned loss and
 * parameter hash bit for bit.
 */
template <typename Make>
void
expectPinned(Make make, const Dataset &data, size_t batch, float lr,
             const std::vector<PinnedStep> &pins)
{
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 2, 3, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        Network net = make();
        for (size_t b = 0; b < pins.size(); ++b) {
            SCOPED_TRACE("batch " + std::to_string(b));
            const auto first = static_cast<std::ptrdiff_t>(b * batch);
            const auto last = first + static_cast<std::ptrdiff_t>(batch);
            const std::vector<Tensor> inputs(data.inputs.begin() + first,
                                             data.inputs.begin() + last);
            const std::vector<int64_t> labels(
                data.labels.begin() + first, data.labels.begin() + last);
            const double loss = net.trainBatch(inputs, labels, lr);
            EXPECT_EQ(loss, pins[b].loss) << std::setprecision(17)
                                          << loss;
            EXPECT_EQ(paramHash(net), pins[b].param_hash)
                << std::hex << paramHash(net);
        }
    }
    setThreadCount(saved);
}

TEST(NetworkPinned, C4TwoBatchesOfTen)
{
    workloads::SyntheticConfig config;
    config.train_per_class = 2;
    config.test_per_class = 0;
    auto task = workloads::makeSyntheticTask(config);
    Rng shuffle_rng(19);
    task.train.shuffle(shuffle_rng);
    expectPinned(
        [] {
            Rng rng(20);
            return workloads::buildC4(rng);
        },
        task.train, 10, 0.05f,
        {{2.6560053168779483, 0xd824000882df00d0ull},
         {2.5580131289819805, 0x0f4ce83e7e8ad591ull}});
}

/** smallTask()'s class-ordered training set, shuffled by @p seed. */
Dataset
shuffledTrain(uint64_t seed)
{
    Dataset train = smallTask().train;
    Rng rng(seed);
    train.shuffle(rng);
    return train;
}

TEST(NetworkPinned, SigmoidMlpWithL2Loss)
{
    expectPinned(
        [] {
            Rng rng(21);
            Network net("sigmoid-l2", {1, 8, 8}, LossKind::L2);
            net.add(std::make_unique<FlattenLayer>());
            net.add(std::make_unique<InnerProductLayer>(64, 16, rng));
            net.add(std::make_unique<SigmoidLayer>());
            net.add(std::make_unique<InnerProductLayer>(16, 4, rng));
            return net;
        },
        shuffledTrain(23), 8, 0.3f,
        {{1.3775381436566196, 0x6ee73da91671d773ull},
         {1.1087212376087219, 0xb1f3cae4fa6939dcull}});
}

TEST(NetworkPinned, BatchSmallerThanThreads)
{
    // B = 3: at four threads one chunk per image, and a thread idle.
    expectPinned(
        [] {
            Rng rng(25);
            return smallCnn(rng);
        },
        shuffledTrain(26), 3, 0.1f,
        {{4.5364597177334254, 0x8554a50067bf636eull},
         {2.6548442335550022, 0x8184bebddf7e32a0ull},
         {1.4058826467652501, 0x3b7002e14d3307d6ull}});
}

TEST(Network, AccuracyIsThreadCountInvariant)
{
    // 37 test images: a multiple of no thread count in {2, 3, 4}.
    Rng rng(27);
    Network net = smallCnn(rng);
    const Dataset train = shuffledTrain(28);
    for (size_t b = 0; b + 8 <= 64; b += 8) {
        const std::vector<Tensor> inputs(
            train.inputs.begin() + static_cast<std::ptrdiff_t>(b),
            train.inputs.begin() + static_cast<std::ptrdiff_t>(b + 8));
        const std::vector<int64_t> labels(
            train.labels.begin() + static_cast<std::ptrdiff_t>(b),
            train.labels.begin() + static_cast<std::ptrdiff_t>(b + 8));
        net.trainBatch(inputs, labels, 0.05f);
    }
    const Dataset test = smallTask().test.head(37);
    ASSERT_EQ(test.size(), 37u);

    int64_t correct = 0;
    for (size_t i = 0; i < test.size(); ++i)
        correct += net.predict(test.inputs[i]) == test.labels[i] ? 1 : 0;
    const double expected = static_cast<double>(correct) / 37.0;
    // A trained but imperfect net, so a miscounted hit would show.
    EXPECT_GT(correct, 0);
    EXPECT_LT(correct, 37);

    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 2, 3, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        EXPECT_EQ(net.accuracy(test.inputs, test.labels), expected);
    }
    setThreadCount(saved);
}

} // namespace
} // namespace nn
} // namespace pipelayer
