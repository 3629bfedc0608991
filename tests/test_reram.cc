/**
 * @file
 * Unit tests for the ReRAM substrate: spike coding, integrate-and-
 * fire, crossbar arrays and bit-sliced array groups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "reram/params.hh"
#include "support/one_window.hh"
#include "support/spike.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace reram {
namespace {

TEST(DeviceParams, PaperDefaults)
{
    const DeviceParams p = DeviceParams::paperDefault();
    EXPECT_EQ(p.cell_bits, 4);
    EXPECT_EQ(p.data_bits, 16);
    EXPECT_EQ(p.sliceGroups(), 4);
    EXPECT_EQ(p.maxCellCode(), 15);
    EXPECT_NEAR(p.read_latency_per_spike, 29.31e-9, 1e-12);
    EXPECT_NEAR(p.write_latency_per_spike, 50.88e-9, 1e-12);
    EXPECT_NEAR(p.read_energy_per_spike, 1.08e-12, 1e-15);
    EXPECT_NEAR(p.write_energy_per_spike, 3.91e-9, 1e-12);
    // A 16-bit input needs 16 spike slots per MVM step.
    EXPECT_NEAR(p.mvmLatency(), 16 * 29.31e-9, 1e-12);
}

TEST(SpikeDriver, EncodeDecodeExact)
{
    const SpikeDriver driver(16);
    for (int64_t code : {0L, 1L, 2L, 255L, 32767L, 65535L}) {
        const SpikeTrain train = driver.encode(code);
        EXPECT_EQ(train.value(), code) << "code " << code;
        EXPECT_EQ(train.bits(), 16);
    }
}

TEST(SpikeDriver, LsbFirstOrdering)
{
    const SpikeDriver driver(4);
    const SpikeTrain train = driver.encode(0b0101);
    EXPECT_TRUE(train.slots[0]);  // LSB first (paper §4.2.1)
    EXPECT_FALSE(train.slots[1]);
    EXPECT_TRUE(train.slots[2]);
    EXPECT_FALSE(train.slots[3]);
}

TEST(SpikeDriver, SpikeCountIsPopcount)
{
    const SpikeDriver driver(8);
    EXPECT_EQ(driver.encode(0).spikeCount(), 0);
    EXPECT_EQ(driver.encode(255).spikeCount(), 8);
    EXPECT_EQ(driver.encode(0b10110).spikeCount(), 3);
}

TEST(IntegrateFire, CountsChargeExactly)
{
    IntegrateFire inf(32);
    inf.integrate(5);
    inf.integrate(7);
    EXPECT_EQ(inf.count(), 12);
    EXPECT_FALSE(inf.saturated());
    inf.reset();
    EXPECT_EQ(inf.count(), 0);
}

TEST(IntegrateFire, SaturatesAtCounterWidth)
{
    IntegrateFire inf(4); // max count 15
    inf.integrate(10);
    inf.integrate(10);
    EXPECT_EQ(inf.count(), 15);
    EXPECT_TRUE(inf.saturated());
}

TEST(Crossbar, ProgramAndReadCells)
{
    const DeviceParams p;
    CrossbarArray array(p);
    array.programCell(3, 5, 9);
    EXPECT_EQ(array.cell(3, 5), 9);
    EXPECT_EQ(array.cell(0, 0), 0);
}

TEST(Crossbar, MatVecIsExactIntegerProduct)
{
    const DeviceParams p;
    CrossbarArray array(p);
    // g[0][0] = 3, g[1][0] = 5, g[0][1] = 7.
    array.programCell(0, 0, 3);
    array.programCell(1, 0, 5);
    array.programCell(0, 1, 7);
    const std::vector<int64_t> out =
        matVecCodesOnce(array, {10, 20}, p.data_bits);
    EXPECT_EQ(out[0], 10 * 3 + 20 * 5);
    EXPECT_EQ(out[1], 10 * 7);
    EXPECT_EQ(out[2], 0);
}

TEST(Crossbar, MatVecFullResolutionInputs)
{
    const DeviceParams p;
    CrossbarArray array(p);
    for (int64_t r = 0; r < p.array_rows; ++r)
        array.programCell(r, 0, 15);
    std::vector<int64_t> codes(static_cast<size_t>(p.array_rows), 65535);
    const std::vector<int64_t> out =
        matVecCodesOnce(array, codes, p.data_bits);
    EXPECT_EQ(out[0], 65535LL * 15 * p.array_rows);
}

TEST(Crossbar, ActivityCountsSpikes)
{
    const DeviceParams p;
    CrossbarArray array(p);
    array.programCell(0, 0, 1);
    (void)matVecCodesOnce(array, {0b101}, p.data_bits); // 2 spikes
    (void)matVecCodesOnce(array, {0b1}, p.data_bits);   // 1 spike
    EXPECT_EQ(array.activity().input_spikes, 3);
    EXPECT_EQ(array.activity().mvm_ops, 2);
    EXPECT_EQ(array.activity().write_pulses, p.cell_bits);
}

TEST(CrossbarDeath, RejectsOverRangeCode)
{
    const DeviceParams p;
    CrossbarArray array(p);
    EXPECT_DEATH(array.programCell(0, 0, 16), "exceeds");
}

// ---------------------------------------------------------------------
// ArrayGroup
// ---------------------------------------------------------------------

TEST(ArrayGroup, ArrayCountMatchesTiling)
{
    const DeviceParams p; // 128x128 arrays, 2 signs x 4 slices
    Rng rng(1);
    // 200 inputs x 150 outputs -> 2x2 tiles.
    const Tensor w = Tensor::randn({150, 200}, rng);
    ArrayGroup group(p, w);
    EXPECT_EQ(group.arrayCount(), 2 * 4 * 2 * 2);
}

TEST(ArrayGroup, Fig5ExampleTiling)
{
    // Paper Fig. 5: a 512x256 matrix decomposes into 8 = 4x2 arrays
    // of 128x128 (per sign and slice group).
    const DeviceParams p;
    Rng rng(2);
    const Tensor w = Tensor::randn({256, 512}, rng); // (out, in)
    ArrayGroup group(p, w);
    EXPECT_EQ(group.arrayCount(), 2 * 4 * 8);
}

TEST(ArrayGroup, ReadWeightsMatchesQuantisedOriginal)
{
    const DeviceParams p;
    Rng rng(3);
    const Tensor w = Tensor::randn({10, 12}, rng);
    ArrayGroup group(p, w);
    const Tensor stored = group.readWeights();
    // 16-bit quantisation: error below one LSB.
    for (int64_t i = 0; i < w.numel(); ++i)
        EXPECT_NEAR(stored.at(i), w.at(i), group.weightScale() * 0.51f);
}

TEST(ArrayGroup, MatVecMatchesFloatWithinQuantisation)
{
    const DeviceParams p;
    Rng rng(4);
    const Tensor w = Tensor::randn({16, 24}, rng);
    ArrayGroup group(p, w);
    Tensor x({24});
    for (int64_t i = 0; i < 24; ++i)
        x(i) = static_cast<float>(rng.uniform()); // non-negative input
    const Tensor expect = ops::matVec(w, x);
    const Tensor got = matVecOnce(group, x);
    for (int64_t i = 0; i < expect.numel(); ++i)
        EXPECT_NEAR(got(i), expect(i), 5e-3 * (1.0 + std::fabs(expect(i))));
}

TEST(ArrayGroup, SignedInputsViaSignSplit)
{
    const DeviceParams p;
    Rng rng(5);
    const Tensor w = Tensor::randn({8, 8}, rng);
    ArrayGroup group(p, w);
    const Tensor x = Tensor::randn({8}, rng); // signed (backward errors)
    const Tensor expect = ops::matVec(w, x);
    const Tensor got = matVecOnce(group, x);
    for (int64_t i = 0; i < expect.numel(); ++i)
        EXPECT_NEAR(got(i), expect(i), 5e-3 * (1.0 + std::fabs(expect(i))));
}

TEST(ArrayGroup, MatVecAcrossTileBoundaries)
{
    const DeviceParams p;
    Rng rng(6);
    const Tensor w = Tensor::randn({130, 260}, rng); // 2x3 tile grid
    ArrayGroup group(p, w);
    Tensor x({260});
    for (int64_t i = 0; i < 260; ++i)
        x(i) = static_cast<float>(rng.uniform());
    const Tensor expect = ops::matVec(w, x);
    const Tensor got = matVecOnce(group, x);
    for (int64_t i = 0; i < expect.numel(); ++i)
        EXPECT_NEAR(got(i), expect(i),
                    2e-2 * (1.0 + std::fabs(expect(i))));
}

TEST(ArrayGroup, UpdateWeightsMovesTowardTarget)
{
    const DeviceParams p;
    Rng rng(7);
    // Keep weights well inside the quantisation range (set by the
    // 2.0 anchor) so no update clamps at the code limits.
    Tensor w = Tensor::randn({6, 6}, rng, 0.0f, 0.3f);
    w(0, 0) = 2.0f;
    ArrayGroup group(p, w);
    // Gradient = +1 everywhere: weights must decrease by lr/B.
    Tensor grad({6, 6}, 1.0f);
    const Tensor before = group.readWeights();
    group.updateWeights(grad, /*lr=*/0.5f, /*batch_size=*/2);
    const Tensor after = group.readWeights();
    for (int64_t i = 0; i < before.numel(); ++i)
        EXPECT_NEAR(after.at(i), before.at(i) - 0.25f,
                    group.weightScale() * 1.01f);
}

TEST(ArrayGroup, UpdateCanFlipWeightSign)
{
    const DeviceParams p;
    Tensor w({1, 1});
    w(0, 0) = 0.5f;
    ArrayGroup group(p, w);
    Tensor grad({1, 1}, 1.0f);
    group.updateWeights(grad, /*lr=*/1.0f, /*batch_size=*/1);
    const Tensor after = group.readWeights();
    EXPECT_NEAR(after(0, 0), -0.5f, group.weightScale() * 1.01f);
}

/** FNV-1a-64 over the raw float bytes of @p t. */
uint64_t
floatHash(const Tensor &t)
{
    uint64_t h = 14695981039346656037ull;
    const auto *bytes = reinterpret_cast<const unsigned char *>(t.data());
    const size_t n = static_cast<size_t>(t.numel()) * sizeof(float);
    for (size_t k = 0; k < n; ++k) {
        h ^= bytes[k];
        h *= 1099511628211ull;
    }
    return h;
}

/** The four activity counters, in declaration order. */
std::vector<int64_t>
counters(const ArrayActivity &a)
{
    return {a.input_spikes, a.write_pulses, a.mvm_ops, a.if_fires};
}

/** Pinned observables of one ArrayGroup session (see below). */
struct GroupPins
{
    std::vector<int64_t> after_batch, after_update, after_matvec;
    uint64_t batch_hash, matvec_hash, weights_hash;
};

/**
 * A 40 x 70 group on 32 x 32 arrays (3 x 2 tiles, the last tile
 * column 8 bit lines wide): a signed seven-window matVecBatch (mixed
 * signs, all positive, all zero, zero over the first tile row,
 * negative in the second tile row only, positive in the third tile
 * row only), then updateWeights, then one signed window.  Reports the
 * group's activity after each step and hashes of the two outputs and
 * of the stored weights.
 */
GroupPins
runGroupSession(const DeviceParams &p)
{
    Rng rng(8);
    const Tensor w = Tensor::randn({40, 70}, rng);
    ArrayGroup group(p, w);
    Tensor xb({7, 70});
    for (int64_t j = 0; j < 70; ++j) {
        xb(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
        xb(1, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
        xb(2, j) = static_cast<float>(rng.uniform(0.0, 1.0));
        xb(4, j) = j < 32 ? 0.0f : static_cast<float>(rng.uniform());
        const auto mag = static_cast<float>(rng.uniform(0.1, 1.0));
        xb(5, j) = j >= 32 && j < 64 ? -mag : mag;
        xb(6, j) = j >= 64 ? mag : -mag;
    }
    GroupPins pins;
    pins.batch_hash = floatHash(group.matVecBatch(xb));
    pins.after_batch = counters(group.totalActivity());

    Tensor grad({40, 70});
    for (int64_t i = 0; i < grad.numel(); ++i)
        grad.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    group.updateWeights(grad, /*lr=*/0.5f, /*batch_size=*/2);
    pins.after_update = counters(group.totalActivity());

    Tensor x({70});
    for (int64_t j = 0; j < 70; ++j)
        x(j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    pins.matvec_hash = floatHash(matVecOnce(group, x));
    pins.after_matvec = counters(group.totalActivity());
    pins.weights_hash = floatHash(group.readWeights());
    return pins;
}

void
expectPins(const GroupPins &got, const GroupPins &want)
{
    EXPECT_EQ(got.after_batch, want.after_batch);
    EXPECT_EQ(got.after_update, want.after_update);
    EXPECT_EQ(got.after_matvec, want.after_matvec);
    EXPECT_EQ(got.batch_hash, want.batch_hash)
        << std::hex << got.batch_hash;
    EXPECT_EQ(got.matvec_hash, want.matvec_hash)
        << std::hex << got.matvec_hash;
    EXPECT_EQ(got.weights_hash, want.weights_hash)
        << std::hex << got.weights_hash;
}

TEST(ArrayGroup, ActivityAccumulates)
{
    DeviceParams p;
    p.array_rows = 32;
    p.array_cols = 32;
    const GroupPins ideal = runGroupSession(p);
    EXPECT_GT(ideal.after_batch[0], 0);  // input spikes
    EXPECT_GT(ideal.after_batch[1], 0);  // programming during ctor
    EXPECT_GT(ideal.after_batch[2], 0);  // MVMs
    expectPins(ideal, {{48368, 89600, 352, 6112249437},
                       {48368, 179200, 352, 6112249437},
                       {56544, 179200, 448, 7160418898},
                       0x1f284c171171a4a0ull, 0xccdc26a888803467ull,
                       0xc433e4f867098ebaull});

    // Write noise and stuck cells (stuck-high ones included in bit
    // lines no weight maps to).  A 24-bit counter cannot saturate
    // here: on 32-row arrays no count exceeds 32 x (2^15 - 1) x 15 =
    // 15 728 160 < 2^24 - 1.
    p.write_noise_sigma = 0.02;
    p.stuck_at_fault_rate = 0.02;
    p.counter_bits = 24;
    expectPins(runGroupSession(p),
               {{48368, 89600, 352, 6569398604},
                {48368, 179200, 352, 6569398604},
                {56544, 179200, 448, 7701529790},
                0xde93e730da751a67ull, 0xb354e72116e0a62bull,
                0xfdf902ed04ace317ull});

    // The same session on 16-bit counters, which do clamp.
    p.counter_bits = 16;
    expectPins(runGroupSession(p),
               {{48368, 89600, 352, 475810562},
                {48368, 179200, 352, 475810562},
                {56544, 179200, 448, 592514096},
                0x08005a7c6556ab55ull, 0x3a2d4d6296b3b466ull,
                0xfdf902ed04ace317ull});
}

TEST(ArrayGroupDeath, RejectsNonMatrixWeight)
{
    const DeviceParams p;
    Rng rng(20);
    const Tensor cube = Tensor::randn({2, 3, 4}, rng);
    EXPECT_DEATH(ArrayGroup(p, cube), "matrix");
}

TEST(ArrayGroupDeath, RejectsWrongInputSize)
{
    const DeviceParams p;
    Rng rng(21);
    const Tensor w = Tensor::randn({4, 6}, rng);
    ArrayGroup group(p, w);
    Tensor x({1, 5});
    EXPECT_DEATH(group.matVecBatch(x), "matVecBatch input");
}

TEST(ArrayGroupDeath, RejectsWrongGradientShape)
{
    const DeviceParams p;
    Rng rng(22);
    const Tensor w = Tensor::randn({4, 6}, rng);
    ArrayGroup group(p, w);
    Tensor grad({4, 5});
    EXPECT_DEATH(group.updateWeights(grad, 0.1f, 1), "gradient shape");
}

TEST(ArrayGroup, NonFiniteWeightIsAConfigErrorNamingIt)
{
    const DeviceParams p;
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        Tensor w({3, 4}, 0.5f);
        w(1, 2) = bad;
        try {
            ArrayGroup group(p, w);
            ADD_FAILURE() << "weight " << bad << " was programmed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "crossbar weight (1, 2) of a 3 x 4 matrix"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ArrayGroupDeath, NonFiniteWindowPanicsNamingTheGroup)
{
    const DeviceParams p;
    Rng rng(23);
    ArrayGroup group(p, Tensor::randn({4, 6}, rng));
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        Tensor x({3, 6}, 0.5f);
        x(1, 4) = bad;
        EXPECT_DEATH(group.matVecBatch(x),
                     "non-finite input in window 1 of a 4 x 6 crossbar");
    }
}

TEST(ArrayGroupDeath, NonFiniteUpdatePanicsNamingTheGroup)
{
    const DeviceParams p;
    Rng rng(24);
    ArrayGroup group(p, Tensor::randn({4, 6}, rng));
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        Tensor grad({4, 6}, 0.01f);
        grad(2, 5) = bad;
        EXPECT_DEATH(group.updateWeights(grad, 0.1f, 1),
                     "non-finite update of a 4 x 6 crossbar group");
    }
    EXPECT_DEATH(group.updateWeights(Tensor({4, 6}, 0.01f),
                                     std::numeric_limits<float>::quiet_NaN(),
                                     1),
                 "non-finite update");
}

TEST(ArrayGroup, HugeUpdatesSaturateAgainstTheirSign)
{
    // W <- W - lr·g: a gradient far past the code range drives every
    // weight to the end opposite its sign, and stays there.
    const DeviceParams p;
    const int64_t max_code = (int64_t{1} << (p.data_bits - 1)) - 1;
    Rng rng(25);
    const Tensor w = Tensor::randn({5, 7}, rng);
    for (const float g : {3e30f, -3e30f}) {
        SCOPED_TRACE("gradient " + std::to_string(g));
        ArrayGroup group(p, w);
        const float end = static_cast<float>(g > 0.0f ? -max_code : max_code) *
                          group.weightScale();
        for (int round = 0; round < 2; ++round) {
            group.updateWeights(Tensor({5, 7}, g), 0.1f, 4);
            const Tensor stored = group.readWeights();
            for (int64_t i = 0; i < stored.numel(); ++i)
                ASSERT_EQ(stored.at(i), end) << "weight " << i;
        }
    }
}

TEST(ArrayGroup, ZeroWeightMatrixComputesZero)
{
    const DeviceParams p;
    Tensor w({3, 3});
    ArrayGroup group(p, w);
    Tensor x({3}, 1.0f);
    const Tensor out = matVecOnce(group, x);
    for (int64_t i = 0; i < out.numel(); ++i)
        EXPECT_FLOAT_EQ(out(i), 0.0f);
}

/** Property sweep: random matrices at several geometries stay within
 *  quantisation error of the float product. */
class ArrayGroupSweep
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>>
{
};

TEST_P(ArrayGroupSweep, MatVecAccuracy)
{
    const auto [n, m] = GetParam();
    const DeviceParams p;
    Rng rng(static_cast<uint64_t>(n * 1000 + m));
    const Tensor w = Tensor::randn({n, m}, rng);
    ArrayGroup group(p, w);
    Tensor x({m});
    for (int64_t i = 0; i < m; ++i)
        x(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Tensor expect = ops::matVec(w, x);
    const Tensor got = matVecOnce(group, x);
    double max_err = 0.0, max_ref = 0.0;
    for (int64_t i = 0; i < expect.numel(); ++i) {
        max_err = std::max(max_err,
                           (double)std::fabs(got(i) - expect(i)));
        max_ref = std::max(max_ref, (double)std::fabs(expect(i)));
    }
    EXPECT_LT(max_err, 0.02 * (1.0 + max_ref));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ArrayGroupSweep,
    ::testing::Values(std::make_pair<int64_t, int64_t>(1, 1),
                      std::make_pair<int64_t, int64_t>(3, 200),
                      std::make_pair<int64_t, int64_t>(200, 3),
                      std::make_pair<int64_t, int64_t>(64, 64),
                      std::make_pair<int64_t, int64_t>(129, 129)));

} // namespace
} // namespace reram
} // namespace pipelayer
