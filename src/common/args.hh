/**
 * @file
 * Minimal command-line argument parser for the example/tool binaries.
 *
 * Supports positional arguments and --key=value / --flag options;
 * unknown options are collected so tools can fail with a clear
 * message instead of silently ignoring typos.
 */

#ifndef PIPELAYER_COMMON_ARGS_HH_
#define PIPELAYER_COMMON_ARGS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipelayer {

/**
 * Parsed command line.
 *
 * @code
 *   ArgParser args(argc, argv);
 *   const std::string net = args.positional(0, "VGG-A");
 *   const double lambda = args.number("lambda", 1.0);
 *   if (args.flag("stats")) ...
 *   args.rejectUnknown({"lambda", "stats"});
 * @endcode
 */
class ArgParser
{
  public:
    ArgParser(int argc, const char *const *argv);

    /** Positional argument @p i, or @p def when absent. */
    std::string positional(size_t i, const std::string &def = "") const;

    /** Number of positional arguments. */
    size_t positionalCount() const { return positionals_.size(); }

    /** --key=value as a string, or @p def. */
    std::string str(const std::string &key,
                    const std::string &def = "") const;

    /**
     * --key=value parsed as a double; fatal() on a malformed, out of
     * range (1e999) or non-finite (nan, inf) value.
     */
    double number(const std::string &key, double def) const;

    /**
     * --key=value parsed as an integer; fatal() on a malformed value
     * or one outside int64 range.
     */
    int64_t integer(const std::string &key, int64_t def) const;

    /** True if --key was given (with or without a value). */
    bool flag(const std::string &key) const;

    /**
     * fatal() if any option outside @p known was passed — catches
     * typos like --lamda.
     */
    void rejectUnknown(const std::vector<std::string> &known) const;

  private:
    std::vector<std::string> positionals_;
    std::map<std::string, std::string> options_;
};

} // namespace pipelayer

#endif // PIPELAYER_COMMON_ARGS_HH_
