#include "common/arena.hh"

#include <algorithm>
#include <mutex>

#include "common/logging.hh"

namespace pipelayer {
namespace arena {

namespace {

/** First block size; small enough that idle threads stay cheap. */
constexpr size_t kInitialBlock = size_t{64} * 1024;

size_t
alignUp(size_t n)
{
    return (n + kAlign - 1) & ~(kAlign - 1);
}

/**
 * Registry of live arenas plus the folded peak of retired ones, so
 * peakBytes() survives worker threads exiting.  The mutex guards the
 * list only; each arena's peak is a relaxed atomic the owner thread
 * updates without locking.
 */
struct Registry
{
    std::mutex mu;
    std::vector<const Arena *> live;
    size_t retired_peak = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: outlives all threads
    return *r;
}

} // namespace

Arena::Arena()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(this);
}

Arena::~Arena()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired_peak = std::max(r.retired_peak, peak());
    r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
                 r.live.end());
}

void
Arena::pushBlock(size_t cap)
{
    Block b;
    b.cap = cap;
    // Over-allocate so the usable base can be aligned up: operator
    // new[] only guarantees fundamental alignment (16 bytes).
    b.data = std::make_unique<std::byte[]>(cap + kAlign - 1);
    b.base = reinterpret_cast<std::byte *>(
        alignUp(reinterpret_cast<size_t>(b.data.get())));
    blocks_.push_back(std::move(b));
}

void *
Arena::allocate(size_t bytes)
{
    const size_t need = alignUp(std::max<size_t>(bytes, 1));
    if (blocks_.empty()) {
        pushBlock(std::max(kInitialBlock, need));
        active_ = 0;
    }
    if (blocks_[active_].cap - blocks_[active_].used < need) {
        // Advance to the next block that fits (blocks past active_
        // are fully free), appending a geometrically larger one when
        // none does.  Allocations already handed out keep their
        // addresses — blocks never move.
        spilled_ = true;
        size_t next = active_ + 1;
        while (next < blocks_.size() && blocks_[next].cap < need)
            ++next;
        if (next == blocks_.size())
            pushBlock(std::max(blocks_.back().cap * 2, need));
        active_ = next;
        PL_DEBUG_ASSERT(blocks_[active_].used == 0,
                        "arena block past the cursor still in use");
    }
    Block &b = blocks_[active_];
    void *p = b.base + b.used;
    b.used += need;
    total_used_ += need;
    if (total_used_ > peak_.load(std::memory_order_relaxed))
        peak_.store(total_used_, std::memory_order_relaxed);
    return p;
}

Arena::Mark
Arena::mark() const
{
    Mark m;
    m.block = active_;
    m.offset = blocks_.empty() ? 0 : blocks_[active_].used;
    m.total = total_used_;
    return m;
}

void
Arena::rewind(const Mark &m)
{
    PL_DEBUG_ASSERT(m.total <= total_used_,
                    "arena rewound forward — scopes must nest LIFO");
    if (blocks_.empty())
        return;
    for (size_t i = active_; i > m.block; --i)
        blocks_[i].used = 0;
    active_ = m.block;
    blocks_[active_].used = m.offset;
    total_used_ = m.total;
    if (total_used_ == 0 && spilled_)
        consolidate();
}

size_t
Arena::capacity() const
{
    size_t cap = 0;
    for (const Block &b : blocks_)
        cap += b.cap;
    return cap;
}

void
Arena::consolidate()
{
    // Replace the fragmented block list with one block covering the
    // high-water mark, so future operations never straddle a block
    // boundary.  Only called when nothing is live.
    const size_t want = std::max(kInitialBlock, peak());
    blocks_.clear();
    pushBlock(want);
    active_ = 0;
    spilled_ = false;
}

Arena &
local()
{
    thread_local Arena a;
    return a;
}

size_t
peakBytes()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    size_t peak = r.retired_peak;
    for (const Arena *a : r.live)
        peak = std::max(peak, a->peak());
    return peak;
}

} // namespace arena
} // namespace pipelayer
