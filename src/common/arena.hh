/**
 * @file
 * Thread-local workspace arena for hot-path scratch memory.
 *
 * The compute kernels (im2col panels, padded/rotated kernel copies,
 * crossbar row-weight buffers) need short-lived scratch whose size is
 * known at call entry and whose lifetime nests like a call stack.
 * Allocating it from the heap puts malloc/free on every per-cycle
 * operation; this arena instead hands out bump-pointer spans from a
 * per-thread block list that is *kept* between operations, so
 * steady-state training performs zero heap allocation for scratch:
 * the arena grows until it has seen the largest working set once and
 * then only moves a cursor.
 *
 * Usage — always through a scope, so the cursor rewinds on exit:
 *
 * @code
 *   arena::ScopedBuf<float> col(rows * cols);  // thread-local arena
 *   fill(col.data(), ...);                     // 64-byte aligned
 * @endcode
 *
 * Lifetime rules (the "arena contract"):
 *  1. Scratch is LIFO: ScopedBuf/Scope objects must be destroyed in
 *     reverse order of construction (automatic with stack objects).
 *  2. A span is valid until its owning scope dies; never return or
 *     store arena pointers beyond that.
 *  3. Never allocate from the arena inside a parallel_for chunk body
 *     with a chunk-dependent size: chunk shapes vary with the thread
 *     count, which would make peakBytes() (perfbench's
 *     arena.bytes_peak) depend on PL_THREADS.  Allocate on the
 *     calling thread, outside the chunked region.
 *
 * Observability: peakBytes() reports the high-water mark of live
 * scratch over *all* arenas (live and retired threads).  Because rule
 * 3 keeps every individual footprint thread-count independent and the
 * maximum is taken over arenas, the statistic is byte-identical at
 * any PL_THREADS setting; a trainer whose peak stops growing after
 * the first batch demonstrably runs alloc-free at steady state.
 */

#ifndef PIPELAYER_COMMON_ARENA_HH_
#define PIPELAYER_COMMON_ARENA_HH_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pipelayer {
namespace arena {

/** Span alignment guarantee (covers SIMD vector loads). */
constexpr size_t kAlign = 64;

/**
 * One thread's bump allocator: a list of geometrically-grown blocks
 * with LIFO mark/rewind.  Blocks are never freed on rewind — they are
 * reused by the next operation — so the steady state allocates
 * nothing.  On a rewind to empty after a spill into a second block,
 * the block list is consolidated into one block of the peak size, so
 * later operations are served from contiguous memory.
 */
class Arena
{
  public:
    Arena();
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** A rewind point: (block index, offset, logical total). */
    struct Mark
    {
        size_t block = 0;
        size_t offset = 0;
        size_t total = 0;
    };

    /** Allocate @p bytes aligned to kAlign; valid until rewind. */
    void *allocate(size_t bytes);

    /** Current position, to be passed to rewind() later. */
    Mark mark() const;

    /** Release everything allocated after @p m (LIFO only). */
    void rewind(const Mark &m);

    /** Live scratch bytes right now (aligned sizes). */
    size_t used() const { return total_used_; }

    /** High-water mark of used() over this arena's lifetime. */
    size_t peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    /** Total bytes of backing blocks currently held. */
    size_t capacity() const;

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::byte *base = nullptr; //!< data aligned up to kAlign
        size_t cap = 0;            //!< usable bytes from base
        size_t used = 0;
    };

    /** Append a block with at least @p cap usable aligned bytes. */
    void pushBlock(size_t cap);

    /** Drop all blocks for one block of at least peak() bytes. */
    void consolidate();

    std::vector<Block> blocks_;
    size_t active_ = 0;      //!< index of the block being filled
    size_t total_used_ = 0;  //!< logical bytes live across blocks
    bool spilled_ = false;   //!< allocation crossed a block boundary
    std::atomic<size_t> peak_{0};
};

/** The calling thread's arena (created on first use). */
Arena &local();

/**
 * High-water scratch usage across every arena the process has created
 * (including arenas of threads that have since exited).  Monotone;
 * see the file comment for why it is thread-count invariant.
 */
size_t peakBytes();

/** RAII rewind of the thread-local arena to its construction point. */
class Scope
{
  public:
    Scope() : arena_(local()), mark_(arena_.mark()) {}
    ~Scope() { arena_.rewind(mark_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Arena &arena_;
    Arena::Mark mark_;
};

/**
 * A typed scratch span from the thread-local arena, rewound on
 * destruction.  Contents are uninitialised unless @p zeroed.
 */
template <typename T> class ScopedBuf
{
  public:
    explicit ScopedBuf(size_t n, bool zeroed = false)
        : arena_(local()), mark_(arena_.mark()), n_(n),
          p_(static_cast<T *>(arena_.allocate(n * sizeof(T))))
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena spans are never destructed");
        if (zeroed) {
            for (size_t i = 0; i < n_; ++i)
                p_[i] = T{};
        }
    }

    ~ScopedBuf() { arena_.rewind(mark_); }

    ScopedBuf(const ScopedBuf &) = delete;
    ScopedBuf &operator=(const ScopedBuf &) = delete;

    T *data() { return p_; }
    const T *data() const { return p_; }
    size_t size() const { return n_; }

    T &operator[](size_t i) { return p_[i]; }
    const T &operator[](size_t i) const { return p_[i]; }

  private:
    Arena &arena_;
    Arena::Mark mark_;
    size_t n_;
    T *p_;
};

} // namespace arena
} // namespace pipelayer

#endif // PIPELAYER_COMMON_ARENA_HH_
