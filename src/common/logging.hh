/**
 * @file
 * Status-message and error-termination helpers in the gem5 style.
 *
 * Severity model (see gem5 coding style, "Fatal v. Panic"):
 *  - panic():  an internal invariant was violated — a bug in this
 *              library.  Aborts so a debugger/core dump is useful.
 *  - fatal():  the *user* asked for something impossible (bad
 *              configuration, invalid arguments).  Exits cleanly.
 *  - warn():   something is approximated or suspicious but the run can
 *              continue.
 *  - inform(): normal operating status.
 */

#ifndef PIPELAYER_COMMON_LOGGING_HH_
#define PIPELAYER_COMMON_LOGGING_HH_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pipelayer {

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Global log level; messages above this level are suppressed. */
LogLevel logLevel();

/** Set the global log level (e.g. to silence benches). */
void setLogLevel(LogLevel level);

namespace detail {

/** Shared printf-style formatter for the logging front ends. */
std::string vformat(const char *fmt, std::va_list args);

/** Emit one log line with a severity prefix to stderr. */
void emit(const char *prefix, const std::string &msg);

} // namespace detail

/** Print an informational status message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about approximated or suspicious behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug trace message (only at LogLevel::Debug). */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of a user error (bad config, invalid argument).
 * Exits with status 1; never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of an internal bug (broken invariant).
 * Calls std::abort(); never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * A configuration the user asked for is invalid (bad batch size,
 * image count, ...).  Thrown by the validating API surfaces
 * (sim::Job::validate) so embedding callers can recover instead
 * of dying in fatal(); the CLI front ends catch it and exit 1.
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Assert an invariant with a formatted explanation.  Unlike assert(),
 * this is active in release builds: simulator correctness depends on
 * these checks.
 */
#define PL_ASSERT(cond, fmt, ...)                                       \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::pipelayer::panic("assertion '%s' failed: " fmt,           \
                               #cond __VA_OPT__(, ) __VA_ARGS__);       \
        }                                                               \
    } while (0)

/**
 * PL_ASSERT for checks too costly or too intrusive for release builds
 * (e.g. the StatGroup component-outlives-dump contract).  Compiled
 * out under NDEBUG.
 */
#ifdef NDEBUG
#define PL_DEBUG_ASSERT(cond, fmt, ...)                                 \
    do {                                                                \
        (void)sizeof(cond);                                             \
    } while (0)
#else
#define PL_DEBUG_ASSERT(cond, fmt, ...)                                 \
    PL_ASSERT(cond, fmt __VA_OPT__(, ) __VA_ARGS__)
#endif

} // namespace pipelayer

#endif // PIPELAYER_COMMON_LOGGING_HH_
