#include "common/arena.hh"

#include <atomic>
#include <vector>

#include "common/logging.hh"

namespace pipelayer {
namespace arena {

namespace {

/** kAlign bytes on a kAlign boundary, the buffer's unit. */
struct alignas(kAlign) Line
{
    std::byte bytes[kAlign];
};

/** One thread's buffer: grow-only, kept until the thread exits. */
struct Buffer
{
    std::vector<Line> lines;
    bool taken = false;
};

thread_local Buffer t_buffer;
std::atomic<size_t> g_peak{0}; //!< peakBytes()

/** A span of @p n floats, rounded up to whole kAlign lines. */
size_t
spanBytes(int64_t n)
{
    PL_ASSERT(n >= 0, "negative scratch span %lld", (long long)n);
    return (static_cast<size_t>(n) * sizeof(float) + kAlign - 1) &
           ~(kAlign - 1);
}

} // namespace

Scratch::Scratch(std::initializer_list<int64_t> counts)
    : taken_(&t_buffer.taken)
{
    Buffer &buf = t_buffer;
    PL_ASSERT(!buf.taken, "a second live scratch on one thread: take "
                          "every span of a call in one Scratch");
    PL_ASSERT(counts.size() <= kMaxSpans, "%zu scratch spans, at most %zu",
              counts.size(), kMaxSpans);
    size_t bytes = 0;
    for (const int64_t n : counts)
        bytes += spanBytes(n);
    if (bytes > buf.lines.size() * kAlign)
        buf.lines = std::vector<Line>(bytes / kAlign);
    buf.taken = true;
    auto *base = reinterpret_cast<std::byte *>(buf.lines.data());
    size_t i = 0, offset = 0;
    for (const int64_t n : counts) {
        spans_[i++] = reinterpret_cast<float *>(base + offset);
        offset += spanBytes(n);
    }
    size_t peak = g_peak.load(std::memory_order_relaxed);
    while (bytes > peak &&
           !g_peak.compare_exchange_weak(peak, bytes,
                                         std::memory_order_relaxed)) {
    }
}

size_t
peakBytes()
{
    return g_peak.load(std::memory_order_relaxed);
}

} // namespace arena
} // namespace pipelayer
