/**
 * @file
 * Load/save DeviceParams as key = value text, so the calibration
 * knobs documented in DESIGN.md §5 can be changed without
 * recompiling (e.g. to model a different ReRAM process).
 *
 * Format: one `key = value` pair per line; `#` starts a comment;
 * unknown keys are errors (they are typos, not extensions).  Integer
 * keys (array_rows, array_cols, cell_bits, data_bits, counter_bits,
 * variation_seed) take exact integers in their field's type range;
 * the other keys take finite numbers.  Valid ranges are those of
 * DeviceParams::validate().
 */

#ifndef PIPELAYER_RERAM_PARAMS_IO_HH_
#define PIPELAYER_RERAM_PARAMS_IO_HH_

#include <ostream>
#include <string>

#include "reram/params.hh"

namespace pipelayer {
namespace reram {

/**
 * Parse a device-parameter file.  Starts from the paper defaults and
 * overrides whatever keys the file sets; throws ConfigError on an
 * unreadable file or as parseDeviceParams does.
 */
DeviceParams loadDeviceParams(const std::string &path);

/**
 * Parse parameters from an in-memory string (for tests/tools).
 * Throws ConfigError on a line without '=', an unknown key, a value
 * its key cannot hold, or a result DeviceParams::validate() rejects.
 */
DeviceParams parseDeviceParams(const std::string &text);

/** Write every parameter as commented key = value lines. */
void writeDeviceParams(const DeviceParams &params, std::ostream &os);

/** Write to a file; fatal() on I/O failure. */
void saveDeviceParams(const DeviceParams &params,
                      const std::string &path);

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_PARAMS_IO_HH_
