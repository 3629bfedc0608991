/**
 * @file
 * Tests of the device non-ideality model: programming noise and
 * stuck-at faults (the extension study).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "support/one_window.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace reram {
namespace {

/**
 * Program every cell of @p array (a device without write noise) to a
 * mid-range code and count the cells that ignore it: the stuck ones,
 * frozen at 0 or the top code.
 */
int64_t
stuckCells(CrossbarArray &array, const DeviceParams &p)
{
    const int64_t mid = p.maxCellCode() / 2;
    int64_t stuck = 0;
    for (int64_t r = 0; r < array.rows(); ++r) {
        for (int64_t c = 0; c < array.cols(); ++c) {
            array.programCell(r, c, mid);
            stuck += array.cell(r, c) != mid ? 1 : 0;
        }
    }
    return stuck;
}

TEST(Variation, IdealDeviceHasNoStuckCells)
{
    const DeviceParams p; // defaults are ideal
    CrossbarArray array(p);
    EXPECT_EQ(stuckCells(array, p), 0);
    array.programCell(0, 0, 9);
    EXPECT_EQ(array.cell(0, 0), 9); // exact programming
}

TEST(Variation, StuckCellRateIsApproximatelyRespected)
{
    DeviceParams p;
    p.stuck_at_fault_rate = 0.1;
    CrossbarArray array(p, /*instance_seed=*/1);
    const double cells = static_cast<double>(p.array_rows *
                                             p.array_cols);
    const double rate =
        static_cast<double>(stuckCells(array, p)) / cells;
    EXPECT_NEAR(rate, 0.1, 0.02);
}

TEST(Variation, StuckCellsIgnoreProgramming)
{
    // Every cell stuck, at 4-bit cells and at the widest (8-bit)
    // cells, whose stuck-high code 255 must not alias a flag value.
    for (const int bits : {4, 8}) {
        SCOPED_TRACE("cell_bits=" + std::to_string(bits));
        DeviceParams p;
        p.cell_bits = bits;
        p.stuck_at_fault_rate = 1.0;
        CrossbarArray array(p, 2);
        const int64_t top = p.maxCellCode();
        EXPECT_EQ(stuckCells(array, p), p.array_rows * p.array_cols);
        std::vector<int64_t> frozen;
        int64_t high = 0;
        for (int64_t r = 0; r < p.array_rows; ++r) {
            for (int64_t c = 0; c < p.array_cols; ++c) {
                const int64_t g = array.cell(r, c);
                EXPECT_TRUE(g == 0 || g == top) << g;
                array.programCell(r, c, g == 0 ? top : 0);
                EXPECT_EQ(array.cell(r, c), g);
                frozen.push_back(g);
                high += g == top ? 1 : 0;
            }
        }
        EXPECT_GT(high, 0);
        std::vector<int64_t> codes;
        for (int64_t r = 0; r < p.array_rows; ++r)
            codes.push_back(r % 7 + 1);
        const std::vector<int64_t> out =
            matVecCodesOnce(array, codes, p.data_bits);
        for (int64_t c = 0; c < p.array_cols; ++c) {
            int64_t want = 0;
            for (int64_t r = 0; r < p.array_rows; ++r)
                want += codes[static_cast<size_t>(r)] *
                        frozen[static_cast<size_t>(r * p.array_cols + c)];
            EXPECT_EQ(out[static_cast<size_t>(c)], want) << "column " << c;
        }
    }
}

TEST(Variation, WriteNoisePerturbsCodes)
{
    DeviceParams p;
    p.write_noise_sigma = 0.1;
    CrossbarArray array(p, 3);
    int64_t differs = 0;
    for (int64_t r = 0; r < 64; ++r) {
        array.programCell(r, 0, 8);
        differs += array.cell(r, 0) != 8 ? 1 : 0;
        EXPECT_GE(array.cell(r, 0), 0);
        EXPECT_LE(array.cell(r, 0), p.maxCellCode());
    }
    EXPECT_GT(differs, 16); // sigma = 1.5 codes: most writes miss
}

TEST(Variation, DrawsAreDeterministicPerSeed)
{
    DeviceParams p;
    p.write_noise_sigma = 0.1;
    CrossbarArray a(p, 7), b(p, 7), c(p, 8);
    a.programCell(0, 0, 8);
    b.programCell(0, 0, 8);
    c.programCell(0, 0, 8);
    EXPECT_EQ(a.cell(0, 0), b.cell(0, 0));
    (void)c; // different instance seed may differ; just must not crash
}

/** Mean |error| of an ArrayGroup matVec against the float product. */
double
groupError(const DeviceParams &p, uint64_t seed)
{
    Rng rng(seed);
    const Tensor w = Tensor::randn({16, 24}, rng);
    ArrayGroup group(p, w);
    Tensor x({24});
    for (int64_t i = 0; i < 24; ++i)
        x(i) = static_cast<float>(rng.uniform());
    const Tensor expect = ops::matVec(w, x);
    const Tensor got = matVecOnce(group, x);
    double err = 0.0;
    for (int64_t i = 0; i < expect.numel(); ++i)
        err += std::fabs(got(i) - expect(i));
    return err / static_cast<double>(expect.numel());
}

TEST(Variation, NoiseDegradesMatVecMonotonically)
{
    DeviceParams ideal;
    DeviceParams mild;
    mild.write_noise_sigma = 0.02;
    DeviceParams harsh;
    harsh.write_noise_sigma = 0.2;
    const double e0 = groupError(ideal, 42);
    const double e1 = groupError(mild, 42);
    const double e2 = groupError(harsh, 42);
    EXPECT_LT(e0, e1);
    EXPECT_LT(e1, e2);
}

TEST(Variation, StuckCellsDegradeMatVec)
{
    DeviceParams ideal;
    DeviceParams faulty;
    faulty.stuck_at_fault_rate = 0.05;
    EXPECT_LT(groupError(ideal, 43), groupError(faulty, 43));
}

TEST(Variation, SeedChangesTheFaultPattern)
{
    DeviceParams p;
    p.stuck_at_fault_rate = 0.05;
    DeviceParams q = p;
    q.variation_seed = 0xdead;
    // Different fault patterns almost surely give different errors.
    EXPECT_NE(groupError(p, 44), groupError(q, 44));
}

TEST(VariationDeath, BadParametersPanic)
{
    DeviceParams p;
    p.stuck_at_fault_rate = 1.5;
    EXPECT_DEATH(CrossbarArray array(p), "variation");
}

} // namespace
} // namespace reram
} // namespace pipelayer
