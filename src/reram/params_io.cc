#include "reram/params_io.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace pipelayer {
namespace reram {

namespace {

/** Trim leading/trailing whitespace. */
std::string
trim(const std::string &s)
{
    const size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/**
 * Store one key's value text into a DeviceParams; returns the reason
 * the text is not a valid value, or "" once it is stored.
 */
using Setter =
    std::function<std::string(DeviceParams &, const std::string &)>;

/** An integer key: the text must be an exact integer in T's range. */
template <typename T>
Setter
integerKey(T DeviceParams::*field)
{
    return [field](DeviceParams &p, const std::string &text) {
        T value{};
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc() || ptr != end) {
            return "is not an integer in [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]";
        }
        p.*field = value;
        return std::string();
    };
}

/** A real key: the text must be a finite number. */
Setter
realKey(double DeviceParams::*field)
{
    return [field](DeviceParams &p, const std::string &text) {
        char *end = nullptr;
        const double value = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0')
            return std::string("is not a number");
        if (!std::isfinite(value))
            return std::string("is not finite");
        p.*field = value;
        return std::string();
    };
}

/** The settable keys. */
std::map<std::string, Setter>
keyTable()
{
    using P = DeviceParams;
    return {
        {"array_rows", integerKey(&P::array_rows)},
        {"array_cols", integerKey(&P::array_cols)},
        {"cell_bits", integerKey(&P::cell_bits)},
        {"data_bits", integerKey(&P::data_bits)},
        {"counter_bits", integerKey(&P::counter_bits)},
        {"read_latency_per_spike", realKey(&P::read_latency_per_spike)},
        {"write_latency_per_spike", realKey(&P::write_latency_per_spike)},
        {"read_energy_per_spike", realKey(&P::read_energy_per_spike)},
        {"write_energy_per_spike", realKey(&P::write_energy_per_spike)},
        {"array_area_mm2", realKey(&P::array_area_mm2)},
        {"mem_array_area_mm2", realKey(&P::mem_array_area_mm2)},
        {"periph_energy_factor", realKey(&P::periph_energy_factor)},
        {"mem_write_energy_per_bit",
         realKey(&P::mem_write_energy_per_bit)},
        {"mem_read_energy_per_bit", realKey(&P::mem_read_energy_per_bit)},
        {"controller_energy_per_image",
         realKey(&P::controller_energy_per_image)},
        {"write_noise_sigma", realKey(&P::write_noise_sigma)},
        {"stuck_at_fault_rate", realKey(&P::stuck_at_fault_rate)},
        {"variation_seed", integerKey(&P::variation_seed)},
    };
}

/** ConfigError for line @p line_no of a parameter file. */
[[noreturn]] void
lineError(int line_no, const std::string &what)
{
    throw ConfigError("device params line " + std::to_string(line_no) +
                      ": " + what);
}

} // namespace

DeviceParams
parseDeviceParams(const std::string &text)
{
    DeviceParams params = DeviceParams::paperDefault();
    const auto table = keyTable();

    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            lineError(line_no, "expected 'key = value', got '" + line +
                                   "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        const auto it = table.find(key);
        if (it == table.end())
            lineError(line_no, "unknown key '" + key + "'");
        const std::string why = it->second(params, value);
        if (!why.empty())
            lineError(line_no, key + " = '" + value + "' " + why);
    }
    params.validate();
    return params;
}

DeviceParams
loadDeviceParams(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw ConfigError("cannot open device params file '" + path + "'");
    std::stringstream buffer;
    buffer << is.rdbuf();
    return parseDeviceParams(buffer.str());
}

void
writeDeviceParams(const DeviceParams &p, std::ostream &os)
{
    os << "# PipeLayer device parameters (see DESIGN.md section 5)\n";
    os << "array_rows = " << p.array_rows << "\n";
    os << "array_cols = " << p.array_cols << "\n";
    os << "cell_bits = " << p.cell_bits << "\n";
    os << "data_bits = " << p.data_bits << "\n";
    os << "counter_bits = " << p.counter_bits << "\n";
    os << "read_latency_per_spike = " << p.read_latency_per_spike
       << "  # seconds\n";
    os << "write_latency_per_spike = " << p.write_latency_per_spike
       << "\n";
    os << "read_energy_per_spike = " << p.read_energy_per_spike
       << "  # joules\n";
    os << "write_energy_per_spike = " << p.write_energy_per_spike
       << "\n";
    os << "array_area_mm2 = " << p.array_area_mm2 << "\n";
    os << "mem_array_area_mm2 = " << p.mem_array_area_mm2 << "\n";
    os << "periph_energy_factor = " << p.periph_energy_factor << "\n";
    os << "mem_write_energy_per_bit = " << p.mem_write_energy_per_bit
       << "\n";
    os << "mem_read_energy_per_bit = " << p.mem_read_energy_per_bit
       << "\n";
    os << "controller_energy_per_image = "
       << p.controller_energy_per_image << "\n";
    os << "write_noise_sigma = " << p.write_noise_sigma << "\n";
    os << "stuck_at_fault_rate = " << p.stuck_at_fault_rate << "\n";
    os << "variation_seed = " << p.variation_seed << "\n";
}

void
saveDeviceParams(const DeviceParams &params, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeDeviceParams(params, os);
    if (!os)
        fatal("write failed for '%s'", path.c_str());
}

} // namespace reram
} // namespace pipelayer
