/**
 * @file
 * Error-termination helpers in the gem5 style.
 *
 * Severity model (see gem5 coding style, "Fatal v. Panic"):
 *  - panic():  an internal invariant was violated — a bug in this
 *              library.  Aborts so a debugger/core dump is useful.
 *  - fatal():  the *user* asked for something impossible (bad
 *              configuration, invalid arguments).  Exits cleanly.
 *  - ConfigError: the same, thrown by the validating API surfaces so
 *              an embedding caller can recover.
 */

#ifndef PIPELAYER_COMMON_LOGGING_HH_
#define PIPELAYER_COMMON_LOGGING_HH_

#include <stdexcept>

namespace pipelayer {

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
 * (e.g. the profiler's per-record site-index range check).  Compiled
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
