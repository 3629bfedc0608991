#include "arch/buffers.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pipelayer {
namespace arch {

CircularBuffer::CircularBuffer(std::string name, int64_t entries)
    : name_(std::move(name)), capacity_(entries),
      slots_(static_cast<size_t>(entries))
{
    PL_ASSERT(entries >= 1, "buffer %s needs at least one entry",
              name_.c_str());
}

int64_t
CircularBuffer::find(int64_t tag) const
{
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].live && slots_[i].tag == tag)
            return static_cast<int64_t>(i);
    }
    return -1;
}

void
CircularBuffer::write(int64_t tag)
{
    Slot &slot = slots_[static_cast<size_t>(write_idx_)];
    if (slot.live)
        ++violations_; // overwrote data that was still needed
    else
        ++live_count_;
    slot.tag = tag;
    slot.live = true;
    write_idx_ = (write_idx_ + 1) % capacity_;
    ++writes_;
    peak_live_ = std::max(peak_live_, live_count_);
}

void
CircularBuffer::read(int64_t tag, bool final_read)
{
    const int64_t slot_idx = find(tag);
    if (slot_idx < 0) {
        ++violations_; // the datum was evicted before its last use
        return;
    }
    ++reads_;
    if (final_read) {
        slots_[static_cast<size_t>(slot_idx)].live = false;
        --live_count_;
    }
}

bool
CircularBuffer::contains(int64_t tag) const
{
    return find(tag) >= 0;
}

} // namespace arch
} // namespace pipelayer
