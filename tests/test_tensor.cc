/**
 * @file
 * Unit tests for the Tensor container.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/isa.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace {

TEST(Tensor, ShapeNumel)
{
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24);
    EXPECT_EQ(shapeNumel({}), 1);
    EXPECT_EQ(shapeNumel({0, 5}), 0);
}

TEST(Tensor, ShapeToString)
{
    EXPECT_EQ(shapeToString({2, 3}), "(2, 3)");
    EXPECT_EQ(shapeToString({}), "()");
}

TEST(Tensor, ZeroInitialised)
{
    Tensor t({2, 2});
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FillValueConstructor)
{
    Tensor t({3}, 2.5f);
    EXPECT_EQ(t(0), 2.5f);
    EXPECT_EQ(t(2), 2.5f);
}

TEST(Tensor, RowMajorIndexing3D)
{
    Tensor t({2, 3, 4});
    t(1, 2, 3) = 9.0f;
    // flat = (1*3 + 2)*4 + 3 = 23
    EXPECT_EQ(t.at(23), 9.0f);
}

TEST(Tensor, RowMajorIndexing4D)
{
    Tensor t({2, 2, 2, 2});
    t(1, 0, 1, 0) = 5.0f;
    // flat = ((1*2 + 0)*2 + 1)*2 + 0 = 10
    EXPECT_EQ(t.at(10), 5.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3});
    t(1, 2) = 7.0f;
    const Tensor r = t.reshape({6});
    EXPECT_EQ(r(5), 7.0f);
    EXPECT_EQ(r.rank(), 1);
}

TEST(Tensor, ElementwiseArithmetic)
{
    Tensor a({2}, 1.0f), b({2}, 2.0f);
    Tensor c = a + b;
    EXPECT_EQ(c(0), 3.0f);
    c -= a;
    EXPECT_EQ(c(1), 2.0f);
    c *= 4.0f;
    EXPECT_EQ(c(0), 8.0f);
}

TEST(Tensor, Hadamard)
{
    Tensor a({3}, 2.0f), b({3});
    b(0) = 1.0f;
    b(1) = -2.0f;
    b(2) = 0.0f;
    const Tensor h = a.hadamard(b);
    EXPECT_EQ(h(0), 2.0f);
    EXPECT_EQ(h(1), -4.0f);
    EXPECT_EQ(h(2), 0.0f);
}

TEST(Tensor, SumAndArgmax)
{
    Tensor t({4});
    t(0) = 1.0f;
    t(1) = -5.0f;
    t(2) = 3.0f;
    t(3) = 3.0f;
    EXPECT_DOUBLE_EQ(t.sum(), 2.0);
    EXPECT_EQ(t.argmax(), 2); // first of the ties
}

TEST(Tensor, RandnIsDeterministicGivenSeed)
{
    Rng rng1(99), rng2(99);
    const Tensor a = Tensor::randn({10}, rng1);
    const Tensor b = Tensor::randn({10}, rng2);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a.at(i), b.at(i));
}

TEST(Tensor, RandnMoments)
{
    Rng rng(7);
    const Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
    EXPECT_NEAR(t.sum() / t.numel(), 1.0, 0.1);
}

TEST(Tensor, FillOverwrites)
{
    Tensor t({5}, 3.0f);
    t.fill(-1.0f);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.at(i), -1.0f);
}

/**
 * @p n floats, each either a special operand (±0, ±inf, NaN, a
 * subnormal, the largest float) or a Gaussian draw.
 */
Tensor
edgeOperands(int64_t n, Rng &rng)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float special[] = {
        0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(), -1.5e-39f,
        std::numeric_limits<float>::max()};
    Tensor t({n});
    for (int64_t i = 0; i < n; ++i)
        t.at(i) = rng.uniform() < 0.5
            ? special[rng.uniformInt(std::size(special))]
            : static_cast<float>(rng.gaussian());
    return t;
}

/** Same shape and the same float bit patterns. */
void
expectSameBits(const Tensor &got, const std::vector<float> &want)
{
    ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size()));
    for (int64_t i = 0; i < got.numel(); ++i) {
        const float g = got.at(i);
        EXPECT_EQ(0, std::memcmp(&g, &want[static_cast<size_t>(i)],
                                 sizeof(float)))
            << "element " << i << ": " << g << " vs "
            << want[static_cast<size_t>(i)];
    }
}

TEST(Tensor, ElementwiseOpsMatchPlainLoopsOnEveryTarget)
{
    // +=, -=, *= and the SGD step run on the dispatched kernels; each
    // must give the plain scalar loop's bits on every target, through
    // every vector tail (lengths 0..67) and on ±0, ±inf, NaN and
    // subnormal operands.
    const isa::Target entry = isa::active();
    for (isa::Target target : isa::availableTargets()) {
        ASSERT_TRUE(isa::setActive(target));
        SCOPED_TRACE(std::string("isa=") + isa::name(target));
        Rng rng(0xE1E7u);
        for (int64_t n = 0; n <= 67; ++n) {
            SCOPED_TRACE("n=" + std::to_string(n));
            const Tensor y = edgeOperands(n, rng);
            const Tensor x = edgeOperands(n, rng);
            const float s = edgeOperands(1, rng).at(0);
            std::vector<float> sum(static_cast<size_t>(n));
            std::vector<float> diff(sum.size()), scaled(sum.size());
            for (size_t i = 0; i < sum.size(); ++i) {
                sum[i] = y.data()[i] + x.data()[i];
                diff[i] = y.data()[i] - x.data()[i];
                scaled[i] = y.data()[i] * s;
            }
            Tensor got = y;
            got += x;
            expectSameBits(got, sum);
            got = y;
            got -= x;
            expectSameBits(got, diff);
            got = y;
            got *= s;
            expectSameBits(got, scaled);

            if (n == 0)
                continue;
            // ConvLayer's weight (n, 1, 1, 1) and bias (n): p <- p -
            // (lr / B) g on gradients set by hand.
            nn::ConvLayer layer(1, n, 1, 1, 0, rng);
            const float lr = 0.3f;
            const int64_t batch = 7;
            const float step = lr * (1.0f / static_cast<float>(batch));
            for (size_t k = 0; k < 2; ++k) {
                *layer.parameters()[k] = edgeOperands(n, rng).reshape(
                    layer.parameters()[k]->shape());
                *layer.gradients()[k] = edgeOperands(n, rng).reshape(
                    layer.gradients()[k]->shape());
            }
            std::vector<std::vector<float>> want(2);
            for (size_t k = 0; k < 2; ++k) {
                const Tensor &p = *layer.parameters()[k];
                const Tensor &g = *layer.gradients()[k];
                for (int64_t i = 0; i < p.numel(); ++i)
                    want[k].push_back(p.at(i) - step * g.at(i));
            }
            layer.applyUpdate(lr, batch);
            for (size_t k = 0; k < 2; ++k)
                expectSameBits(*layer.parameters()[k], want[k]);
        }
    }
    ASSERT_TRUE(isa::setActive(entry));
}

TEST(TensorDeath, OutOfRangeAccessPanics)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t.at(4), "out of range");
    EXPECT_DEATH(t(2, 0), "out of range");
}

TEST(TensorDeath, RankMismatchPanics)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t(0), "1-D access");
}

TEST(TensorDeath, BadReshapePanics)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t.reshape({3}), "changes element count");
}

} // namespace
} // namespace pipelayer
