/**
 * @file
 * Unit tests for the layer implementations, including numerical
 * gradient checks of every parameterised layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "common/rng.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "nn/network.hh"

namespace pipelayer {
namespace nn {
namespace {

/** Scalar pseudo-loss: Σ out ⊙ delta, to drive gradient checks. */
double
probeLoss(const Tensor &out, const Tensor &delta)
{
    double loss = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i)
        loss += out.at(i) * delta.at(i);
    return loss;
}

/**
 * Numerically verify dL/dparam for a layer with parameters, where
 * L = probeLoss(layer.forward(x), delta).
 */
void
checkParamGradients(Layer &layer, const Tensor &input, uint64_t seed)
{
    Rng rng(seed);
    const Tensor out = layer.forward(input);
    const Tensor delta = Tensor::randn(out.shape(), rng);

    layer.zeroGrads();
    layer.accumulateGrads(input, delta);

    // applyUpdate with lr=-1, batch=1 adds the gradient to the
    // parameters; recover it by differencing.
    std::vector<Tensor> before;
    for (Tensor *p : layer.parameters())
        before.push_back(*p);
    layer.applyUpdate(-1.0f, 1);
    std::vector<Tensor> grads;
    {
        const auto params = layer.parameters();
        for (size_t i = 0; i < params.size(); ++i)
            grads.push_back(*params[i] - before[i]);
        // Restore.
        for (size_t i = 0; i < params.size(); ++i)
            *params[i] = before[i];
    }

    const float eps = 1e-2f;
    const auto params = layer.parameters();
    for (size_t p = 0; p < params.size(); ++p) {
        // Probe a handful of entries.
        const int64_t n = params[p]->numel();
        for (int64_t idx = 0; idx < n; idx += std::max<int64_t>(1, n / 5)) {
            const float saved = params[p]->at(idx);
            params[p]->at(idx) = saved + eps;
            const double lp = probeLoss(layer.forward(input), delta);
            params[p]->at(idx) = saved - eps;
            const double lm = probeLoss(layer.forward(input), delta);
            params[p]->at(idx) = saved;
            const double numeric = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(grads[p].at(idx), numeric, 2e-2)
                << "param " << p << " index " << idx;
        }
    }
}

/** Numerically verify the input gradient of any layer. */
void
checkInputGradient(Layer &layer, const Tensor &input, uint64_t seed)
{
    Rng rng(seed);
    Saved saved;
    const Tensor out = layer.forward(input, &saved);
    const Tensor delta = Tensor::randn(out.shape(), rng);
    const Tensor grad_in = layer.backward(delta, saved);
    ASSERT_EQ(grad_in.numel(), input.numel());

    const float eps = 1e-2f;
    const int64_t n = input.numel();
    for (int64_t idx = 0; idx < n; idx += std::max<int64_t>(1, n / 6)) {
        Tensor plus = input, minus = input;
        plus.at(idx) += eps;
        minus.at(idx) -= eps;
        const double lp = probeLoss(layer.forward(plus), delta);
        const double lm = probeLoss(layer.forward(minus), delta);
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grad_in.at(idx), numeric, 3e-2) << "index " << idx;
    }
}

TEST(ConvLayer, OutputShape)
{
    Rng rng(1);
    ConvLayer conv(3, 8, 5, 1, 0, rng);
    EXPECT_EQ(conv.outputShape({3, 28, 28}), (Shape{8, 24, 24}));
    ConvLayer padded(3, 8, 3, 1, 1, rng);
    EXPECT_EQ(padded.outputShape({3, 28, 28}), (Shape{8, 28, 28}));
}

TEST(ConvLayer, Describe)
{
    Rng rng(1);
    EXPECT_EQ(ConvLayer(1, 20, 5, 1, 0, rng).describe(), "conv5x20");
    EXPECT_EQ(ConvLayer(3, 96, 11, 4, 0, rng).describe(), "conv11x96/s4");
}

TEST(ConvLayer, ParamGradients)
{
    Rng rng(2);
    ConvLayer conv(2, 3, 3, 1, 1, rng);
    const Tensor input = Tensor::randn({2, 5, 5}, rng);
    checkParamGradients(conv, input, 21);
}

TEST(ConvLayer, InputGradient)
{
    Rng rng(3);
    ConvLayer conv(2, 2, 3, 1, 0, rng);
    const Tensor input = Tensor::randn({2, 6, 6}, rng);
    checkInputGradient(conv, input, 31);
}

TEST(ConvLayer, ParameterCount)
{
    Rng rng(4);
    ConvLayer conv(3, 8, 5, 1, 0, rng);
    EXPECT_EQ(conv.parameterCount(), 8 * 3 * 5 * 5 + 8);
}

TEST(InnerProductLayer, ForwardMatchesMatVec)
{
    Rng rng(5);
    InnerProductLayer ip(4, 3, rng);
    Tensor x({4}, 1.0f);
    const Tensor out = ip.forward(x);
    const auto params = ip.parameters();
    for (int64_t i = 0; i < 3; ++i) {
        double expect = (*params[1])(i);
        for (int64_t j = 0; j < 4; ++j)
            expect += (*params[0])(i, j);
        EXPECT_NEAR(out(i), expect, 1e-5);
    }
}

TEST(InnerProductLayer, ParamGradients)
{
    Rng rng(6);
    InnerProductLayer ip(6, 4, rng);
    const Tensor input = Tensor::randn({6}, rng);
    checkParamGradients(ip, input, 61);
}

TEST(InnerProductLayer, InputGradient)
{
    Rng rng(7);
    InnerProductLayer ip(5, 3, rng);
    const Tensor input = Tensor::randn({5}, rng);
    checkInputGradient(ip, input, 71);
}

TEST(InnerProductLayer, AcceptsCubeInput)
{
    Rng rng(8);
    InnerProductLayer ip(8, 2, rng);
    const Tensor cube = Tensor::randn({2, 2, 2}, rng);
    const Tensor out = ip.forward(cube);
    EXPECT_EQ(out.shape(), (Shape{2}));
}

TEST(ReluLayer, ForwardClampsNegatives)
{
    ReluLayer relu;
    Tensor x({3});
    x(0) = -1.0f;
    x(1) = 0.0f;
    x(2) = 2.0f;
    const Tensor out = relu.forward(x);
    EXPECT_FLOAT_EQ(out(0), 0.0f);
    EXPECT_FLOAT_EQ(out(1), 0.0f);
    EXPECT_FLOAT_EQ(out(2), 2.0f);
}

TEST(ReluLayer, BackwardMasksByOutput)
{
    // The paper (§4.3) notes f'(u) = f'(d) for ReLU, so the mask
    // derives from the saved *output*.
    ReluLayer relu;
    Tensor x({3});
    x(0) = -1.0f;
    x(1) = 3.0f;
    x(2) = 0.5f;
    Saved saved;
    relu.forward(x, &saved);
    Tensor delta({3}, 1.0f);
    const Tensor grad = relu.backward(delta, saved);
    EXPECT_FLOAT_EQ(grad(0), 0.0f);
    EXPECT_FLOAT_EQ(grad(1), 1.0f);
    EXPECT_FLOAT_EQ(grad(2), 1.0f);
}

TEST(SigmoidLayer, ForwardRange)
{
    SigmoidLayer sig;
    Tensor x({2});
    x(0) = -10.0f;
    x(1) = 10.0f;
    const Tensor out = sig.forward(x);
    EXPECT_LT(out(0), 0.001f);
    EXPECT_GT(out(1), 0.999f);
}

TEST(SigmoidLayer, InputGradient)
{
    Rng rng(9);
    SigmoidLayer sig;
    const Tensor input = Tensor::randn({6}, rng);
    checkInputGradient(sig, input, 91);
}

TEST(MaxPoolLayer, ForwardBackwardRoundTrip)
{
    Rng rng(10);
    MaxPoolLayer pool(2);
    const Tensor input = Tensor::randn({3, 4, 4}, rng);
    Saved saved;
    const Tensor out = pool.forward(input, &saved);
    EXPECT_EQ(out.shape(), (Shape{3, 2, 2}));
    const Tensor delta = Tensor::randn(out.shape(), rng);
    const Tensor grad = pool.backward(delta, saved);
    EXPECT_EQ(grad.shape(), input.shape());
    // Total error mass is conserved by max-pool routing.
    EXPECT_NEAR(grad.sum(), delta.sum(), 1e-4);
}

TEST(AvgPoolLayer, InputGradient)
{
    Rng rng(11);
    AvgPoolLayer pool(2);
    const Tensor input = Tensor::randn({2, 4, 4}, rng);
    checkInputGradient(pool, input, 111);
}

TEST(PoolLayerDeath, NetworkAddRejectsWindowsThatDoNotTile)
{
    // 2x2 windows do not tile 15x15.  Network::add validates shapes,
    // so it must refuse the layer instead of reporting 7x7 and leaving
    // the panic to the first forward.
    EXPECT_DEATH(
        {
            Network net("odd", {1, 15, 15});
            net.add(std::make_unique<MaxPoolLayer>(2));
        },
        "pooling window 2 does not tile 15x15");
    EXPECT_DEATH(
        {
            Network net("odd", {1, 15, 16});
            net.add(std::make_unique<AvgPoolLayer>(2));
        },
        "pooling window 2 does not tile 15x16");
}

TEST(FlattenLayer, RoundTrip)
{
    Rng rng(12);
    FlattenLayer flat;
    const Tensor input = Tensor::randn({2, 3, 4}, rng);
    Saved saved;
    const Tensor out = flat.forward(input, &saved);
    EXPECT_EQ(out.shape(), (Shape{24}));
    const Tensor grad = flat.backward(out, saved);
    EXPECT_EQ(grad.shape(), input.shape());
}

/** @p a and @p b have the same shape and the same float bytes. */
void
expectSameBytes(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)));
}

TEST(LayerContract, InterleavedImagesMatchOneAtATime)
{
    // Layers keep no per-image state, so two images in flight through
    // one layer (forward A, forward B, backward A, backward B) give
    // exactly the one-at-a-time results: the property the pipelined
    // trainer relies on when several images share a layer.
    struct Case
    {
        std::function<LayerPtr()> make;
        Shape input;
    };
    const std::vector<Case> cases = {
        {[] {
             Rng rng(20);
             return std::make_unique<ConvLayer>(2, 3, 3, 1, 1, rng);
         },
         {2, 6, 6}},
        {[] {
             Rng rng(21);
             return std::make_unique<InnerProductLayer>(12, 5, rng);
         },
         {3, 2, 2}},
        {[] { return std::make_unique<ReluLayer>(); }, {2, 4, 4}},
        {[] { return std::make_unique<SigmoidLayer>(); }, {2, 4, 4}},
        {[] { return std::make_unique<MaxPoolLayer>(2); }, {2, 4, 4}},
        {[] { return std::make_unique<AvgPoolLayer>(2); }, {2, 4, 4}},
        {[] { return std::make_unique<FlattenLayer>(); }, {2, 3, 4}},
    };
    Rng rng(22);
    for (const Case &c : cases) {
        LayerPtr serial = c.make();
        LayerPtr interleaved = c.make();
        SCOPED_TRACE(serial->describe());
        const Shape out_shape = serial->outputShape(c.input);
        const Tensor a = Tensor::randn(c.input, rng);
        const Tensor b = Tensor::randn(c.input, rng);
        const Tensor da = Tensor::randn(out_shape, rng);
        const Tensor db = Tensor::randn(out_shape, rng);

        Saved sa, sb;
        const Tensor out_a = serial->forward(a, &sa);
        const Tensor in_a = serial->backward(da, sa);
        serial->accumulateGrads(a, da);
        const Tensor out_b = serial->forward(b, &sb);
        const Tensor in_b = serial->backward(db, sb);
        serial->accumulateGrads(b, db);

        Saved ia, ib;
        const Tensor out_ia = interleaved->forward(a, &ia);
        const Tensor out_ib = interleaved->forward(b, &ib);
        const Tensor in_ia = interleaved->backward(da, ia);
        const Tensor in_ib = interleaved->backward(db, ib);
        interleaved->accumulateGrads(a, da);
        interleaved->accumulateGrads(b, db);

        expectSameBytes(out_ia, out_a);
        expectSameBytes(out_ib, out_b);
        expectSameBytes(in_ia, in_a);
        expectSameBytes(in_ib, in_b);
        const auto ga = serial->gradients();
        const auto gb = interleaved->gradients();
        ASSERT_EQ(ga.size(), gb.size());
        for (size_t k = 0; k < ga.size(); ++k)
            expectSameBytes(*gb[k], *ga[k]);
    }
}

TEST(LayerContract, AccumulateGradsAddsImageGrads)
{
    // accumulateGrads() is exactly `gradients()[k] += imageGrads()[k]`
    // (the floats trainBatch adds from a partial after its join), and
    // imageGrads() leaves the accumulators alone.
    struct Case
    {
        std::function<LayerPtr()> make;
        Shape input;
    };
    const std::vector<Case> cases = {
        {[] {
             Rng rng(30);
             return std::make_unique<ConvLayer>(2, 3, 3, 1, 1, rng);
         },
         {2, 6, 6}},
        {[] {
             Rng rng(31);
             return std::make_unique<ConvLayer>(3, 4, 2, 1, 0, rng);
         },
         {3, 5, 5}},
        {[] {
             Rng rng(32);
             return std::make_unique<InnerProductLayer>(12, 5, rng);
         },
         {3, 2, 2}},
    };
    Rng rng(33);
    for (const Case &c : cases) {
        LayerPtr direct = c.make();
        LayerPtr by_partial = c.make();
        SCOPED_TRACE(direct->describe());
        const Shape out_shape = direct->outputShape(c.input);
        const Tensor x0 = Tensor::randn(c.input, rng);
        const Tensor d0 = Tensor::randn(out_shape, rng);
        const Tensor x1 = Tensor::randn(c.input, rng);
        const Tensor d1 = Tensor::randn(out_shape, rng);

        // A nonzero accumulator first, so the add is not from zero.
        direct->accumulateGrads(x0, d0);
        by_partial->accumulateGrads(x0, d0);
        std::vector<Tensor> before;
        for (const Tensor *g : by_partial->gradients())
            before.push_back(*g);

        direct->accumulateGrads(x1, d1);
        const std::vector<Tensor> partial = by_partial->imageGrads(x1, d1);
        const auto grads = by_partial->gradients();
        ASSERT_EQ(partial.size(), grads.size());
        ASSERT_EQ(grads.size(), 2u);
        for (size_t k = 0; k < grads.size(); ++k) {
            expectSameBytes(*grads[k], before[k]);
            ASSERT_EQ(partial[k].shape(), grads[k]->shape());
            *grads[k] += partial[k];
        }
        const auto want = direct->gradients();
        for (size_t k = 0; k < grads.size(); ++k)
            expectSameBytes(*grads[k], *want[k]);
    }

    // Parameter-free layers have no partials and nothing to add.
    const Tensor x = Tensor::randn({2, 4, 4}, rng);
    ReluLayer relu;
    EXPECT_TRUE(relu.imageGrads(x, x).empty());
    relu.accumulateGrads(x, x);
    EXPECT_TRUE(relu.gradients().empty());
}

TEST(Loss, L2LossValueAndDelta)
{
    Tensor y({2});
    y(0) = 1.0f;
    y(1) = 3.0f;
    Tensor t({2});
    t(0) = 0.0f;
    t(1) = 1.0f;
    const LossResult r = l2Loss(y, t);
    EXPECT_NEAR(r.loss, 0.5 * (1.0 + 4.0), 1e-6);
    EXPECT_FLOAT_EQ(r.delta(0), 1.0f);
    EXPECT_FLOAT_EQ(r.delta(1), 2.0f);
}

TEST(Loss, SoftmaxSumsToOne)
{
    Tensor logits({4});
    logits(0) = 1.0f;
    logits(1) = 2.0f;
    logits(2) = 3.0f;
    logits(3) = 4.0f;
    const Tensor p = softmax(logits);
    EXPECT_NEAR(p.sum(), 1.0, 1e-6);
    EXPECT_GT(p(3), p(0));
}

TEST(Loss, SoftmaxIsShiftInvariant)
{
    Tensor a({3});
    a(0) = 100.0f;
    a(1) = 101.0f;
    a(2) = 102.0f;
    Tensor b({3});
    b(0) = 0.0f;
    b(1) = 1.0f;
    b(2) = 2.0f;
    const Tensor pa = softmax(a), pb = softmax(b);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(pa(i), pb(i), 1e-6);
}

TEST(Loss, SoftmaxLossGradientSumsToZero)
{
    Rng rng(13);
    const Tensor logits = Tensor::randn({5}, rng);
    const LossResult r = softmaxLoss(logits, 2);
    EXPECT_NEAR(r.delta.sum(), 0.0, 1e-5);
    EXPECT_LT(r.delta(2), 0.0f); // true-class gradient is negative
    EXPECT_GT(r.loss, 0.0);
}

TEST(LayerKindNames, AllDistinct)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv), "conv");
    EXPECT_STREQ(layerKindName(LayerKind::MaxPool), "maxpool");
    EXPECT_STREQ(layerKindName(LayerKind::InnerProduct), "ip");
}

} // namespace
} // namespace nn
} // namespace pipelayer
