/**
 * @file
 * Runtime SIMD instruction-set detection and dispatch selection.
 *
 * The compute kernels (src/tensor/gemm_*.cc) are compiled once per
 * instruction set — scalar always, AVX2/AVX-512 on x86-64 (other
 * hosts run the scalar kernels) — and the active target is chosen at
 * runtime: CPUID detection picks the widest supported set, the
 * `PL_ISA` environment variable (`scalar|avx2|avx512`) or a bench's
 * `--isa=` flag forces a specific one.  Every target implements the
 * *same* lane-based reduction contract (DESIGN.md §7), so forcing a
 * target changes wall clock only — results are byte-identical across
 * targets, which CI asserts by golden byte-compare.
 *
 * The dispatched target is recorded in the bench envelope ("isa"),
 * the profiler report, and the serving metrics trailer
 * ("serving.host.isa_level"), so every artifact names the kernels
 * that produced it.
 */

#ifndef PIPELAYER_COMMON_ISA_HH_
#define PIPELAYER_COMMON_ISA_HH_

#include <string>
#include <vector>

namespace pipelayer {
namespace isa {

/** Kernel instruction-set targets, ordered narrowest to widest. */
enum class Target : int
{
    Scalar = 0, //!< portable C++, compiled everywhere
    Avx2 = 1,   //!< x86-64 AVX2
    Avx512 = 2, //!< x86-64 AVX-512 (F + DQ)
};

/** Number of distinct Target values. */
constexpr int kTargetCount = 3;

/** Stable lower-case name ("scalar", "avx2", "avx512"). */
const char *name(Target t);

/**
 * Parse a target name (as accepted by PL_ISA / --isa).  Returns false
 * on an unknown name; @p out is untouched then.
 */
bool parse(const std::string &text, Target *out);

/**
 * True when @p t is both compiled into this binary and supported by
 * the host CPU.  Scalar is always supported.
 */
bool supported(Target t);

/** Every supported target, narrowest first (always includes Scalar). */
std::vector<Target> availableTargets();

/** The widest supported target (what auto-dispatch picks). */
Target best();

/**
 * The active dispatch target.  Resolved once on first use: a set
 * `PL_ISA` forces that target (an unknown or unsupported name is a
 * fatal() configuration error, exit 1 — silent fallback would defeat
 * the CI byte-compare that forces scalar); otherwise best() wins.
 */
Target active();

/**
 * Force the active target programmatically (tests, --isa=).  Fails
 * (returns false, leaves the active target unchanged) when @p t is
 * not supported on this host.
 */
bool setActive(Target t);

/**
 * Re-run the PL_ISA/auto resolution (tests that mutate the
 * environment).  Same fatal-on-invalid semantics as active().
 */
void reresolveFromEnv();

} // namespace isa
} // namespace pipelayer

#endif // PIPELAYER_COMMON_ISA_HH_
