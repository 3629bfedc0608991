#include "common/isa.hh"

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"

namespace pipelayer {
namespace isa {

namespace {

/** -1 = not yet resolved; otherwise a Target ordinal. */
std::atomic<int> g_active{-1};

bool
hostSupports(Target t)
{
    switch (t) {
    case Target::Scalar:
        return true;
    case Target::Avx2:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case Target::Avx512:
#if defined(__x86_64__) || defined(_M_X64)
        // The avx512 TU is compiled with -mavx512f -mavx512dq, so the
        // runtime gate requires both features before dispatching into
        // it (the compiler is free to use DQ forms anywhere in the TU).
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0;
#else
        return false;
#endif
    }
    return false;
}

/** The PL_ISA or auto choice; a bad PL_ISA is fatal(), never a throw. */
Target
resolve() noexcept
{
    const char *env = std::getenv("PL_ISA");
    if (env != nullptr && env[0] != '\0') {
        Target forced;
        if (!parse(env, &forced))
            fatal("PL_ISA must be one of scalar|avx2|avx512, got '%s'",
                  env);
        if (!supported(forced))
            fatal("PL_ISA=%s is not supported on this host", env);
        return forced;
    }
    return best();
}

} // namespace

const char *
name(Target t)
{
    switch (t) {
    case Target::Scalar:
        return "scalar";
    case Target::Avx2:
        return "avx2";
    case Target::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
parse(const std::string &text, Target *out)
{
    for (int i = 0; i < kTargetCount; ++i) {
        const Target t = static_cast<Target>(i);
        if (text == name(t)) {
            *out = t;
            return true;
        }
    }
    return false;
}

bool
supported(Target t)
{
    return hostSupports(t);
}

std::vector<Target>
availableTargets()
{
    std::vector<Target> out;
    for (int i = 0; i < kTargetCount; ++i) {
        const Target t = static_cast<Target>(i);
        if (supported(t))
            out.push_back(t);
    }
    return out;
}

Target
best()
{
    // Widest wins: AVX-512 over AVX2 over scalar.
    Target widest = Target::Scalar;
    for (int i = 0; i < kTargetCount; ++i) {
        const Target t = static_cast<Target>(i);
        if (supported(t))
            widest = t;
    }
    return widest;
}

Target
active()
{
    int cur = g_active.load(std::memory_order_acquire);
    if (cur < 0) {
        // Pool workers can reach here at once.  A local static is
        // initialised once while the others wait, so a bad PL_ISA
        // makes exactly one fatal() call.
        static const int first = static_cast<int>(resolve());
        int expected = -1;
        // A setActive() that ran meanwhile wins.
        g_active.compare_exchange_strong(expected, first,
                                         std::memory_order_acq_rel);
        cur = g_active.load(std::memory_order_acquire);
    }
    return static_cast<Target>(cur);
}

bool
setActive(Target t)
{
    if (!supported(t))
        return false;
    g_active.store(static_cast<int>(t), std::memory_order_release);
    return true;
}

void
reresolveFromEnv()
{
    g_active.store(static_cast<int>(resolve()),
                   std::memory_order_release);
}

} // namespace isa
} // namespace pipelayer
