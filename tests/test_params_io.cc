/**
 * @file
 * Tests of the device-parameter file format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "reram/array_group.hh"
#include "reram/params_io.hh"
#include "sim/simulator.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace reram {
namespace {

TEST(ParamsIo, EmptyTextGivesPaperDefaults)
{
    const DeviceParams p = parseDeviceParams("");
    const DeviceParams d = DeviceParams::paperDefault();
    EXPECT_EQ(p.array_rows, d.array_rows);
    EXPECT_EQ(p.cell_bits, d.cell_bits);
    EXPECT_DOUBLE_EQ(p.read_latency_per_spike, d.read_latency_per_spike);
}

TEST(ParamsIo, OverridesApply)
{
    const DeviceParams p = parseDeviceParams(
        "cell_bits = 2\n"
        "data_bits = 8\n"
        "write_noise_sigma = 0.05\n");
    EXPECT_EQ(p.cell_bits, 2);
    EXPECT_EQ(p.data_bits, 8);
    EXPECT_EQ(p.sliceGroups(), 4);
    EXPECT_DOUBLE_EQ(p.write_noise_sigma, 0.05);
}

TEST(ParamsIo, CommentsAndBlanksIgnored)
{
    const DeviceParams p = parseDeviceParams(
        "# a calibration experiment\n"
        "\n"
        "array_rows = 256   # bigger subarrays\n");
    EXPECT_EQ(p.array_rows, 256);
}

TEST(ParamsIo, RoundTripThroughText)
{
    DeviceParams original;
    original.periph_energy_factor = 3.5;
    original.array_area_mm2 = 0.001;
    original.stuck_at_fault_rate = 0.01;
    std::ostringstream os;
    writeDeviceParams(original, os);
    const DeviceParams back = parseDeviceParams(os.str());
    EXPECT_DOUBLE_EQ(back.periph_energy_factor, 3.5);
    EXPECT_DOUBLE_EQ(back.array_area_mm2, 0.001);
    EXPECT_DOUBLE_EQ(back.stuck_at_fault_rate, 0.01);
    EXPECT_EQ(back.array_rows, original.array_rows);
}

TEST(ParamsIo, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "pl_params.cfg";
    DeviceParams original;
    original.controller_energy_per_image = 1e-6;
    saveDeviceParams(original, path);
    const DeviceParams back = loadDeviceParams(path);
    EXPECT_DOUBLE_EQ(back.controller_energy_per_image, 1e-6);
    std::remove(path.c_str());
}

/** The ConfigError message parsing @p text throws, or "". */
std::string
parseError(const std::string &text)
{
    try {
        (void)parseDeviceParams(text);
    } catch (const ConfigError &err) {
        return err.what();
    }
    return "";
}

/** Parsing @p text throws a ConfigError whose message holds @p needle. */
void
expectRejected(const std::string &text, const std::string &needle)
{
    SCOPED_TRACE(text);
    EXPECT_THROW(parseDeviceParams(text), ConfigError);
    const std::string message = parseError(text);
    EXPECT_NE(message.find(needle), std::string::npos) << message;
}

TEST(ParamsIoErrors, UnknownKeyThrows)
{
    expectRejected("spike_color = blue\n", "unknown key");
}

TEST(ParamsIoErrors, MalformedValueThrows)
{
    expectRejected("cell_bits = four\n", "cell_bits");
}

TEST(ParamsIoErrors, MissingEqualsThrows)
{
    expectRejected("cell_bits 4\n", "expected");
}

TEST(ParamsIoErrors, MissingFileThrows)
{
    EXPECT_THROW(loadDeviceParams("/no/such/params.cfg"), ConfigError);
}

TEST(ParamsIoErrors, IncompatibleBitsThrow)
{
    // 16 data bits over 3-bit cells: the slice grouping breaks.
    expectRejected("cell_bits = 3\n", "multiple");
}

TEST(ParamsIoErrors, IntegerKeysAreExact)
{
    // Each once truncated, wrapped or slipped through a double cast.
    expectRejected("array_rows = 2.7\n", "array_rows");
    expectRejected("array_rows = 1e300\n", "array_rows");
    expectRejected("array_rows = 99999999999999999999\n", "array_rows");
    expectRejected("variation_seed = -1\n", "variation_seed");
    expectRejected("counter_bits = 1e1\n", "counter_bits");
}

TEST(ParamsIoErrors, RangesAreEnforced)
{
    expectRejected("cell_bits = 0\n", "cell_bits");
    expectRejected("array_rows = -5\n", "array_rows");
    expectRejected("array_cols = 0\n", "array_cols");
    expectRejected("counter_bits = 70\n", "counter_bits");
    expectRejected("counter_bits = 0\n", "counter_bits");
    expectRejected("cell_bits = 16\ndata_bits = 32\n", "cell_bits");
    expectRejected("data_bits = 64\n", "data_bits");
    expectRejected("stuck_at_fault_rate = 2\n", "stuck_at_fault_rate");
    expectRejected("write_noise_sigma = -1\n", "write_noise_sigma");
    expectRejected("periph_energy_factor = -0.5\n",
                   "periph_energy_factor");
    expectRejected("array_area_mm2 = inf\n", "array_area_mm2");
    expectRejected("read_energy_per_spike = nan\n",
                   "read_energy_per_spike");
    // rows x (2^32 - 1) x 255 must stay below 2^62: 4,210,752 rows
    // fit at 8-bit cells and 32-bit data, one more does not.
    EXPECT_EQ(parseDeviceParams("cell_bits = 8\ndata_bits = 32\n"
                                "array_rows = 4210752\n")
                  .array_rows,
              4210752);
    expectRejected("cell_bits = 8\ndata_bits = 32\n"
                   "array_rows = 4210753\n",
                   "array_rows");
}

TEST(ParamsIoErrors, ConsumersValidate)
{
    DeviceParams p;
    p.cell_bits = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    EXPECT_THROW(ArrayGroup(p, Tensor({2, 2})), ConfigError);
    EXPECT_THROW(sim::Simulator(workloads::networkByName("Mnist-A"), p),
                 ConfigError);
    EXPECT_NO_THROW(DeviceParams().validate());

    // Spike resolutions the file format accepts but the crossbar's
    // quantiser (2..16 bits) cannot hold: the arrays throw naming
    // data_bits, and a device's Weight_load keeps no network.
    for (const auto &[cell_bits, data_bits] :
         {std::pair{1, 1}, {1, 17}, {4, 32}, {8, 32}}) {
        SCOPED_TRACE("cell_bits=" + std::to_string(cell_bits) +
                     " data_bits=" + std::to_string(data_bits));
        p = DeviceParams();
        p.cell_bits = cell_bits;
        p.data_bits = data_bits;
        EXPECT_NO_THROW(p.validate());
        try {
            ArrayGroup(p, Tensor({2, 2}));
            ADD_FAILURE() << "no ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("data_bits"),
                      std::string::npos)
                << e.what();
        }
        core::PipeLayerConfig config;
        config.device = p;
        core::PipeLayerDevice device(config);
        Rng rng(5);
        nn::Network net = workloads::buildM1(rng);
        device.Topology_set(net);
        EXPECT_THROW(device.Weight_load(), ConfigError);
        EXPECT_EQ(device.arrayCount(), 0);
    }
    for (const auto &[cell_bits, data_bits] :
         {std::pair{1, 2}, {2, 2}, {4, 16}, {8, 16}}) {
        p = DeviceParams();
        p.cell_bits = cell_bits;
        p.data_bits = data_bits;
        EXPECT_NO_THROW(ArrayGroup(p, Tensor({2, 2})))
            << "cell_bits=" << cell_bits << " data_bits=" << data_bits;
    }
}

TEST(ParamsIo, SeedsRoundTripExactly)
{
    // 2^53 + 1 is the first integer a double cannot hold.
    for (const uint64_t seed : {uint64_t{9007199254740993u},
                                std::numeric_limits<uint64_t>::max()}) {
        DeviceParams original;
        original.variation_seed = seed;
        std::ostringstream os;
        writeDeviceParams(original, os);
        EXPECT_EQ(parseDeviceParams(os.str()).variation_seed, seed);
    }
}

} // namespace
} // namespace reram
} // namespace pipelayer
