/**
 * @file
 * Semantic tests of the pipelined training executor: the Fig. 6
 * schedule, executed with real tensors through capacity-constrained
 * buffers, must compute exactly what sequential batch training
 * computes.  This is the functional proof of the paper's central
 * claim that the inter-layer pipeline with 2(L-l)+1 buffers preserves
 * the training semantics.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "nn/trainer.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace core {
namespace {

nn::Network
cnn(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("pipe-cnn", {1, 8, 8});
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

nn::Network
mlp(uint64_t seed, nn::LossKind loss = nn::LossKind::Softmax)
{
    Rng rng(seed);
    nn::Network net("pipe-mlp", {1, 8, 8}, loss);
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

std::pair<std::vector<Tensor>, std::vector<int64_t>>
makeBatch(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < n; ++i) {
        Tensor x({1, 8, 8});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }
    return {std::move(inputs), std::move(labels)};
}

/** Every parameter of two identically-shaped nets has equal bytes. */
void
expectSameParams(nn::Network &a, nn::Network &b)
{
    for (size_t l = 0; l < a.numLayers(); ++l) {
        const auto pa = a.layer(l).parameters();
        const auto pb = b.layer(l).parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (size_t k = 0; k < pa.size(); ++k) {
            ASSERT_EQ(pa[k]->numel(), pb[k]->numel());
            EXPECT_EQ(0, std::memcmp(pa[k]->data(), pb[k]->data(),
                                     static_cast<size_t>(pa[k]->numel()) *
                                         sizeof(float)))
                << "layer " << l << " parameter " << k;
        }
    }
}

TEST(PipelinedTrainer, DepthCountsArrayStages)
{
    nn::Network c = cnn(1);
    nn::Network m = mlp(2);
    EXPECT_EQ(PipelinedTrainer(c).depth(), 3);
    EXPECT_EQ(PipelinedTrainer(m).depth(), 2);
}

TEST(PipelinedTrainer, CycleCountMatchesFig7b)
{
    nn::Network net = cnn(3);
    PipelinedTrainer trainer(net);
    auto [inputs, labels] = makeBatch(10, 4);
    const auto result = trainer.trainBatch(inputs, labels, 0.1f);
    // 2L + B + 1 = 6 + 10 + 1.
    EXPECT_EQ(result.logical_cycles, 17);
}

TEST(PipelinedTrainer, CnnMatchesSequentialTraining)
{
    // Same initial weights, same batch: pipelined and sequential
    // training run the same layer code and the same update, so they
    // agree bit for bit.  B = 7 and B = 10 are batch sizes where
    // lr / B and lr * (1 / B) round differently.
    struct Case
    {
        uint64_t net_seed;
        int64_t batch;
        uint64_t data_seed;
        float lr;
    };
    for (const Case &c : {Case{5, 12, 6, 0.2f}, Case{5, 7, 60, 0.2f},
                          Case{3, 10, 4, 0.1f}}) {
        SCOPED_TRACE("cnn(" + std::to_string(c.net_seed) + "), B = " +
                     std::to_string(c.batch));
        nn::Network piped = cnn(c.net_seed);
        nn::Network serial = cnn(c.net_seed);
        auto [inputs, labels] = makeBatch(c.batch, c.data_seed);

        PipelinedTrainer trainer(piped);
        const auto result = trainer.trainBatch(inputs, labels, c.lr);
        const double serial_loss = serial.trainBatch(inputs, labels, c.lr);

        expectSameParams(piped, serial);
        EXPECT_EQ(result.mean_loss, serial_loss);
        EXPECT_GT(result.mean_loss, 0.0);
    }
}

TEST(PipelinedTrainer, MlpMatchesSequentialTraining)
{
    nn::Network piped = mlp(7);
    nn::Network serial = mlp(7);
    auto [inputs, labels] = makeBatch(16, 8);

    PipelinedTrainer trainer(piped);
    trainer.trainBatch(inputs, labels, 0.3f);
    serial.trainBatch(inputs, labels, 0.3f);
    expectSameParams(piped, serial);
}

TEST(PipelinedTrainer, LossMatchesSequential)
{
    nn::Network piped = cnn(9);
    nn::Network serial = cnn(9);
    auto [inputs, labels] = makeBatch(8, 10);

    PipelinedTrainer trainer(piped);
    const auto result = trainer.trainBatch(inputs, labels, 0.1f);
    const double serial_loss =
        serial.trainBatch(inputs, labels, 0.1f);
    EXPECT_EQ(result.mean_loss, serial_loss);
}

TEST(PipelinedTrainer, L2LossVariantAgrees)
{
    // The trainer seeds δ_L with the network's own loss kind.
    nn::Network piped = mlp(11, nn::LossKind::L2);
    nn::Network serial = mlp(11, nn::LossKind::L2);
    auto [inputs, labels] = makeBatch(6, 12);

    PipelinedTrainer trainer(piped);
    trainer.trainBatch(inputs, labels, 0.2f);

    // Sequential L2 training: trainBatch seeds δ_L through lossFor,
    // the one-hot l2Loss for an L2 network.
    serial.trainBatch(inputs, labels, 0.2f);
    expectSameParams(piped, serial);
}

TEST(PipelinedTrainer, BuffersStayWithinPaperSizing)
{
    // The trainer asserts the scheduler's 2(L-l)+1 buffers saw no
    // violation; with a long batch the peak must actually reach the
    // input buffer's 2L+1.
    nn::Network net = cnn(13);
    PipelinedTrainer trainer(net);
    auto [inputs, labels] = makeBatch(20, 14);
    const auto result = trainer.trainBatch(inputs, labels, 0.1f);
    EXPECT_EQ(result.peak_buffer_entries,
              2 * trainer.depth() + 1);
}

TEST(PipelinedTrainer, MultipleBatchesKeepLearning)
{
    workloads::SyntheticConfig data;
    data.classes = 4;
    data.image_size = 8;
    data.train_per_class = 24;
    data.test_per_class = 10;
    data.noise = 0.25f;
    auto task = workloads::makeSyntheticTask(data);

    nn::Network net = cnn(15);
    PipelinedTrainer trainer(net);
    double first_loss = 0.0, last_loss = 0.0;
    for (int epoch = 0; epoch < 6; ++epoch) {
        Rng rng(static_cast<uint64_t>(epoch));
        task.train.shuffle(rng);
        for (size_t s = 0; s + 8 <= task.train.size(); s += 8) {
            std::vector<Tensor> in(task.train.inputs.begin() + s,
                                   task.train.inputs.begin() + s + 8);
            std::vector<int64_t> lb(task.train.labels.begin() + s,
                                    task.train.labels.begin() + s + 8);
            last_loss = trainer.trainBatch(in, lb, 0.15f).mean_loss;
            if (epoch == 0 && s == 0)
                first_loss = last_loss;
        }
    }
    EXPECT_LT(last_loss, first_loss * 0.7);
    EXPECT_GT(net.accuracy(task.test.inputs, task.test.labels), 0.7);
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

/** One pinned batch: its result JSON and the weights it leaves. */
struct PinnedBatch
{
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    float lr;
    const char *result_json;
    uint64_t param_hash;
};

/**
 * Train @p batches in order through a fresh net from @p make at one
 * and at four threads; every batch must reproduce its pinned result
 * JSON and parameter hash bit for bit.
 */
template <typename Make>
void
expectPinned(Make make, const std::vector<PinnedBatch> &batches)
{
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        nn::Network net = make();
        PipelinedTrainer trainer(net);
        for (size_t b = 0; b < batches.size(); ++b) {
            SCOPED_TRACE("batch " + std::to_string(b));
            const PinnedBatch &pin = batches[b];
            const auto result =
                trainer.trainBatch(pin.inputs, pin.labels, pin.lr);
            EXPECT_EQ(result.toJson().dump(), pin.result_json);
            EXPECT_EQ(paramHash(net), pin.param_hash)
                << std::hex << paramHash(net);
        }
    }
    setThreadCount(saved);
}

TEST(PipelinedTrainerPinned, CnnBitsAcrossTwoBatches)
{
    auto [in0, lb0] = makeBatch(12, 6);
    auto [in1, lb1] = makeBatch(7, 60);
    expectPinned([] { return cnn(5); },
                 {{in0, lb0, 0.2f,
                   R"({"mean_loss":2.755893159203801,"logical_cycles":19,)"
                   R"("peak_buffer_entries":7,"forward_ops":36,)"
                   R"("error_seeds":12,"backward_ops":36,"commits":84})",
                   0xec732c25e055c959ull},
                  {in1, lb1, 0.2f,
                   R"({"mean_loss":1.3713090644056443,"logical_cycles":14,)"
                   R"("peak_buffer_entries":7,"forward_ops":21,)"
                   R"("error_seeds":7,"backward_ops":21,"commits":49})",
                   0xdde4a74ceae0ade2ull}});
}

TEST(PipelinedTrainerPinned, MlpBitsAcrossTwoBatches)
{
    auto [in0, lb0] = makeBatch(16, 8);
    auto [in1, lb1] = makeBatch(5, 80);
    expectPinned([] { return mlp(7); },
                 {{in0, lb0, 0.3f,
                   R"({"mean_loss":1.3239937884059365,"logical_cycles":21,)"
                   R"("peak_buffer_entries":5,"forward_ops":32,)"
                   R"("error_seeds":16,"backward_ops":32,"commits":80})",
                   0x40710b93668f1737ull},
                  {in1, lb1, 0.3f,
                   R"({"mean_loss":1.7733986364629497,"logical_cycles":10,)"
                   R"("peak_buffer_entries":5,"forward_ops":10,)"
                   R"("error_seeds":5,"backward_ops":10,"commits":25})",
                   0xdcafe614d2929f51ull}});
}

TEST(PipelinedTrainerPinned, C4BatchOfSixteen)
{
    // The benchmark's shape: C-4 (L = 5) at B = 16.
    workloads::SyntheticConfig data;
    data.train_per_class = 2;
    data.test_per_class = 0;
    auto task = workloads::makeSyntheticTask(data);
    Rng shuffle_rng(17);
    task.train.shuffle(shuffle_rng);
    const nn::Dataset batch = task.train.head(16);
    expectPinned(
        [] {
            Rng rng(18);
            return workloads::buildC4(rng);
        },
        {{batch.inputs, batch.labels, 0.05f,
          R"({"mean_loss":3.0243357275354352,"logical_cycles":27,)"
          R"("peak_buffer_entries":11,"forward_ops":80,)"
          R"("error_seeds":16,"backward_ops":80,"commits":176})",
          0x70223c49e9459442ull}});
}

TEST(PipelinedTrainerDeath, StridedConvRejected)
{
    Rng rng(16);
    nn::Network net("strided", {3, 9, 9});
    net.add(std::make_unique<nn::ConvLayer>(3, 4, 3, 2, 0, rng));
    EXPECT_DEATH(PipelinedTrainer trainer(net), "stride");
}

} // namespace
} // namespace core
} // namespace pipelayer
