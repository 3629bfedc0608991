#include "reram/params.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace pipelayer {
namespace reram {

namespace {

[[noreturn]] void
reject(const char *key, const std::string &rule, const std::string &got)
{
    throw ConfigError(std::string("device params: ") + key + " must be " +
                      rule + ", got " + got);
}

void
checkInt(const char *key, int64_t value, int64_t lo, int64_t hi)
{
    if (value < lo || value > hi) {
        reject(key,
               "an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]",
               std::to_string(value));
    }
}

std::string
realText(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    return buf;
}

void
checkNonNegative(const char *key, double value)
{
    if (!std::isfinite(value) || value < 0.0)
        reject(key, "finite and >= 0", realText(value));
}

} // namespace

void
DeviceParams::validate() const
{
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    checkInt("array_rows", array_rows, 1, kMax);
    checkInt("array_cols", array_cols, 1, kMax);
    checkInt("cell_bits", cell_bits, 1, 8);
    checkInt("data_bits", data_bits, 1, 32);
    if (data_bits % cell_bits != 0) {
        reject("data_bits", "a multiple of cell_bits (" +
                                std::to_string(cell_bits) + ")",
               std::to_string(data_bits));
    }
    checkInt("counter_bits", counter_bits, 1, 62);
    // A column's raw sum before the counter clamps it: the collapsed
    // MVM accumulates it in int64 (DESIGN.md §7).
    const int64_t per_row =
        ((int64_t{1} << data_bits) - 1) * maxCellCode();
    const int64_t max_rows = ((int64_t{1} << 62) - 1) / per_row;
    if (array_rows > max_rows) {
        reject("array_rows",
               "at most " + std::to_string(max_rows) + " at " +
                   std::to_string(data_bits) + "-bit data and " +
                   std::to_string(cell_bits) +
                   "-bit cells (rows x (2^data_bits - 1) x "
                   "(2^cell_bits - 1) < 2^62)",
               std::to_string(array_rows));
    }

    checkNonNegative("read_latency_per_spike", read_latency_per_spike);
    checkNonNegative("write_latency_per_spike", write_latency_per_spike);
    checkNonNegative("read_energy_per_spike", read_energy_per_spike);
    checkNonNegative("write_energy_per_spike", write_energy_per_spike);
    checkNonNegative("array_area_mm2", array_area_mm2);
    checkNonNegative("mem_array_area_mm2", mem_array_area_mm2);
    checkNonNegative("periph_energy_factor", periph_energy_factor);
    checkNonNegative("mem_write_energy_per_bit", mem_write_energy_per_bit);
    checkNonNegative("mem_read_energy_per_bit", mem_read_energy_per_bit);
    checkNonNegative("controller_energy_per_image",
                     controller_energy_per_image);
    checkNonNegative("write_noise_sigma", write_noise_sigma);
    if (!(stuck_at_fault_rate >= 0.0 && stuck_at_fault_rate <= 1.0))
        reject("stuck_at_fault_rate", "in [0, 1]",
               realText(stuck_at_fault_rate));
}

} // namespace reram
} // namespace pipelayer
