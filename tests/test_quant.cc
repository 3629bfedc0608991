/**
 * @file
 * Unit and property tests for the quantisation module (paper §5.1).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "quant/quantize.hh"

namespace pipelayer {
namespace quant {
namespace {

/** Quantizer::forTensor over every value of @p t. */
Quantizer
forTensor(const Tensor &t, int bits)
{
    return Quantizer::forTensor({t.data(), static_cast<size_t>(t.numel())},
                                bits);
}

TEST(Quantizer, ZeroBitsIsPassThrough)
{
    Tensor t({3});
    t(0) = 0.123f;
    t(1) = -4.56f;
    t(2) = 7.89f;
    const Tensor q = quantizeTensor(t, 0);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(q.at(i), t.at(i));
}

TEST(Quantizer, PositiveLevels)
{
    Tensor t({1}, 1.0f);
    EXPECT_EQ(forTensor(t, 4).positiveLevels(), 7);
    EXPECT_EQ(forTensor(t, 8).positiveLevels(), 127);
    EXPECT_EQ(forTensor(t, 16).positiveLevels(), 32767);
}

TEST(Quantizer, ScaleComesFromTheLargestFiniteMagnitudeInPlace)
{
    // The values are read where they lie: a window in the middle of a
    // buffer sets the scale from its own largest finite magnitude.
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> buffer = {9.0f, 1.0f, -5.0f, 3.0f,
                                       3.0f, inf,  -9.0f};
    const Quantizer q =
        Quantizer::forTensor(std::span(buffer).subspan(1, 5), 4);
    EXPECT_EQ(q.scale, 5.0f / 7.0f);
    EXPECT_EQ(q.code(-5.0f), -7);
}

TEST(Quantizer, ExtremesAreExact)
{
    Tensor t({2});
    t(0) = -2.0f;
    t(1) = 2.0f;
    const Tensor q = quantizeTensor(t, 4);
    EXPECT_FLOAT_EQ(q(0), -2.0f);
    EXPECT_FLOAT_EQ(q(1), 2.0f);
}

TEST(Quantizer, CodesStayInRange)
{
    Rng rng(1);
    const Tensor t = Tensor::randn({1000}, rng);
    for (int bits : {2, 4, 8, 16}) {
        const Quantizer q = forTensor(t, bits);
        for (int64_t i = 0; i < t.numel(); ++i) {
            const int64_t code = q.code(t.at(i));
            EXPECT_LE(std::llabs(code), q.positiveLevels());
        }
    }
}

TEST(Quantizer, Idempotent)
{
    Rng rng(2);
    const Tensor t = Tensor::randn({100}, rng);
    const Tensor once = quantizeTensor(t, 6);
    const Tensor twice = quantizeTensor(once, 6);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(once.at(i), twice.at(i));
}

TEST(Quantizer, ErrorBoundedByHalfStep)
{
    Rng rng(3);
    const Tensor t = Tensor::randn({500}, rng);
    const Quantizer q = forTensor(t, 8);
    const Tensor quantised = quantizeTensor(t, 8);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_LE(std::fabs(quantised.at(i) - t.at(i)),
                  q.scale * 0.5f + 1e-6f);
}

/** Mean squared quantisation error of @p t at @p bits. */
double
quantizationMse(const Tensor &t, int bits)
{
    const Tensor q = quantizeTensor(t, bits);
    double mse = 0.0;
    for (int64_t i = 0; i < t.numel(); ++i) {
        const double d = t.at(i) - q.at(i);
        mse += d * d;
    }
    return t.numel() > 0 ? mse / static_cast<double>(t.numel()) : 0.0;
}

/** MSE must fall monotonically as resolution rises — the property
 *  behind the Fig. 13 accuracy curve. */
class QuantMseSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantMseSweep, MseShrinksWithMoreBits)
{
    const int bits = GetParam();
    Rng rng(4);
    const Tensor t = Tensor::randn({2000}, rng);
    const double coarse = quantizationMse(t, bits);
    const double fine = quantizationMse(t, bits + 1);
    EXPECT_LT(fine, coarse);
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantMseSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(QuantizeNetwork, ChangesWeightsAtLowBitsOnly)
{
    Rng rng(5);
    nn::Network net("q", {4});
    net.add(std::make_unique<nn::InnerProductLayer>(4, 3, rng));
    const Tensor before = *net.layer(0).parameters()[0];

    nn::Network net16("q16", {4});
    Rng rng2(5);
    net16.add(std::make_unique<nn::InnerProductLayer>(4, 3, rng2));

    quantizeNetworkWeights(net, 2);
    quantizeNetworkWeights(net16, 16);

    double coarse_err = 0.0, fine_err = 0.0;
    const Tensor &w2 = *net.layer(0).parameters()[0];
    const Tensor &w16 = *net16.layer(0).parameters()[0];
    for (int64_t i = 0; i < before.numel(); ++i) {
        coarse_err += std::fabs(w2.at(i) - before.at(i));
        fine_err += std::fabs(w16.at(i) - before.at(i));
    }
    EXPECT_GT(coarse_err, fine_err);
    EXPECT_LT(fine_err, 1e-2);
}

TEST(QuantizeNetwork, ZeroBitsLeavesNetworkIntact)
{
    Rng rng(6);
    nn::Network net("q", {4});
    net.add(std::make_unique<nn::InnerProductLayer>(4, 3, rng));
    const Tensor before = *net.layer(0).parameters()[0];
    quantizeNetworkWeights(net, 0);
    const Tensor &after = *net.layer(0).parameters()[0];
    for (int64_t i = 0; i < before.numel(); ++i)
        EXPECT_FLOAT_EQ(after.at(i), before.at(i));
}

TEST(Quantizer, NonFiniteValuesPassThroughAndSetNoScale)
{
    // A weight that went NaN or ±inf must stay visible after
    // deployment (std::lround of it is unspecified), and it must not
    // move the scale the finite weights round with.
    const float inf = std::numeric_limits<float>::infinity();
    const Tensor finite({2}, std::vector<float>{1.0f, -0.5f});
    for (int bits : {4, 2}) {
        SCOPED_TRACE("bits=" + std::to_string(bits));
        const Tensor ref = quantizeTensor(finite, bits);
        EXPECT_EQ(ref(0), 1.0f);
        for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf,
                          -inf}) {
            const Tensor t({3}, std::vector<float>{1.0f, bad, -0.5f});
            EXPECT_EQ(forTensor(t, bits).scale,
                      forTensor(finite, bits).scale);
            const Tensor q = quantizeTensor(t, bits);
            EXPECT_EQ(q(0), ref(0));
            EXPECT_EQ(q(2), ref(1));
            if (std::isnan(bad))
                EXPECT_TRUE(std::isnan(q(1)));
            else
                EXPECT_EQ(q(1), bad);
        }
    }
}

TEST(Quantizer, AllZeroTensorSurvives)
{
    Tensor t({10});
    const Tensor q = quantizeTensor(t, 4);
    for (int64_t i = 0; i < q.numel(); ++i)
        EXPECT_FLOAT_EQ(q.at(i), 0.0f);
}

TEST(Quantizer, TinyTensorKeepsItsSigns)
{
    // max_abs / levels underflows to 0 for a tensor this small; the
    // scale stops at the smallest subnormal instead, so a positive
    // weight keeps a positive code and a zero stays +0.
    const float tiny = std::numeric_limits<float>::denorm_min();
    const Tensor t({3}, std::vector<float>{2 * tiny, -tiny, 0.0f});
    for (int bits : {2, 4, 8, 16}) {
        SCOPED_TRACE("bits=" + std::to_string(bits));
        const Quantizer q = forTensor(t, bits);
        EXPECT_GT(q.scale, 0.0f);
        EXPECT_GT(q.code(2 * tiny), 0);
        EXPECT_LT(q.code(-tiny), 0);
        EXPECT_EQ(q.code(0.0f), 0);
        const Tensor out = quantizeTensor(t, bits);
        EXPECT_GT(out(0), 0.0f);
        EXPECT_LT(out(1), 0.0f);
        EXPECT_EQ(out(2), 0.0f);
        EXPECT_FALSE(std::signbit(out(2)));
        if (bits >= 4) { // the step is the subnormal itself: exact
            EXPECT_EQ(out(0), 2 * tiny);
            EXPECT_EQ(out(1), -tiny);
        }
    }
}

} // namespace
} // namespace quant
} // namespace pipelayer
