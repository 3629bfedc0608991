/**
 * @file
 * Per-thread scratch memory for the tensor kernels.
 *
 * A kernel call whose scratch size is known at entry (conv's window
 * panel, the data-input scheme of paper Fig. 4, and the transposes
 * around ∂W = conv(d, δ), §4.4.1) takes its thread's one buffer whole,
 * carved into spans, and gives it back when its Scratch dies.  The
 * buffer grows to the thread's largest call and is kept, so steady
 * state allocates nothing.
 *
 * @code
 *   arena::Scratch scratch({rows * cols, cols});  // floats per span
 *   float *panel = scratch[0];                    // 64-byte aligned
 * @endcode
 *
 * The scratch contract (DESIGN.md §7):
 *  1. One call's spans at a time: a second live Scratch on the same
 *     thread panics, so a call takes every span it needs at once; a
 *     span is valid until its Scratch dies.
 *  2. Never take scratch inside a parallel_for chunk body: the calling
 *     thread runs chunks while it holds its own scratch, and chunk
 *     shapes vary with the thread count.
 *  3. Each span is rounded up to kAlign bytes.
 */

#ifndef PIPELAYER_COMMON_ARENA_HH_
#define PIPELAYER_COMMON_ARENA_HH_

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace pipelayer {
namespace arena {

/** Span alignment guarantee (covers SIMD vector loads). */
constexpr size_t kAlign = 64;

/** The calling thread's scratch buffer, held for one kernel call. */
class Scratch
{
  public:
    static constexpr size_t kMaxSpans = 3; //!< most spans one call takes

    /**
     * Take the buffer, grown if too small, as one span of counts[i]
     * floats per entry, each rounded up to kAlign bytes, contents
     * uninitialised.  @pre no other Scratch is live on this thread.
     */
    explicit Scratch(std::initializer_list<int64_t> counts);
    ~Scratch() { *taken_ = false; }

    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    /** Span @p i, kAlign-aligned, valid while this Scratch lives. */
    float *operator[](size_t i) const { return spans_[i]; }

  private:
    bool *taken_; //!< the thread's buffer is held
    float *spans_[kMaxSpans] = {};
};

/**
 * The largest footprint of one call on any thread, in bytes
 * (perfbench's arena.bytes_peak); by rule 2, the same at any
 * PL_THREADS.
 */
size_t peakBytes();

} // namespace arena
} // namespace pipelayer

#endif // PIPELAYER_COMMON_ARENA_HH_
