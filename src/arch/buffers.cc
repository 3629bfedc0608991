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

void
CircularBuffer::unindex(int64_t tag, int64_t slot_idx)
{
    const auto it = tag_index_.find(tag);
    PL_ASSERT(it != tag_index_.end(), "buffer %s: tag %lld not indexed",
              name_.c_str(), (long long)tag);
    auto &indices = it->second;
    const auto pos =
        std::find(indices.begin(), indices.end(), slot_idx);
    PL_ASSERT(pos != indices.end(),
              "buffer %s: slot %lld missing from tag %lld index",
              name_.c_str(), (long long)slot_idx, (long long)tag);
    indices.erase(pos);
    if (indices.empty())
        tag_index_.erase(it);
}

void
CircularBuffer::write(int64_t tag)
{
    Slot &slot = slots_[static_cast<size_t>(write_idx_)];
    if (slot.live) {
        ++violations_; // overwrote data that was still needed
        unindex(slot.tag, write_idx_);
    } else {
        ++live_count_;
    }
    slot.tag = tag;
    slot.live = true;
    tag_index_[tag].push_back(write_idx_);
    write_idx_ = (write_idx_ + 1) % capacity_;
    ++writes_;
    peak_live_ = std::max(peak_live_, live_count_);
}

void
CircularBuffer::read(int64_t tag, bool final_read)
{
    const auto it = tag_index_.find(tag);
    if (it == tag_index_.end()) {
        ++violations_; // the datum was evicted before its last use
        return;
    }
    // Duplicate tags resolve to the lowest slot index, the slot a
    // front-to-back scan of slots_ would have found.
    const int64_t slot_idx =
        *std::min_element(it->second.begin(), it->second.end());
    ++reads_;
    if (final_read) {
        slots_[static_cast<size_t>(slot_idx)].live = false;
        --live_count_;
        unindex(tag, slot_idx);
    }
}

bool
CircularBuffer::contains(int64_t tag) const
{
    return tag_index_.find(tag) != tag_index_.end();
}

} // namespace arch
} // namespace pipelayer
