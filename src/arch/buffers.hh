/**
 * @file
 * Inter-stage circular buffers in memory subarrays (paper §3.3,
 * Fig. 8).
 *
 * Stage l's output is written round-robin into 2(L-l)+1 entries; an
 * entry may be overwritten in the same cycle its data is consumed for
 * the last time (reads are processed before writes within a cycle),
 * but overwriting live data is a correctness violation.  The pipeline
 * scheduler drives these buffers to *prove* the paper's sizing.
 */

#ifndef PIPELAYER_ARCH_BUFFERS_HH_
#define PIPELAYER_ARCH_BUFFERS_HH_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace pipelayer {
namespace arch {

/**
 * A circular buffer of data entries in memory subarrays.
 *
 * Entries are identified by a user tag (image id in the scheduler).
 * The buffer tracks which entries still hold live (unconsumed) data
 * and counts overwrite violations instead of failing, so property
 * tests can probe undersized buffers.
 */
class CircularBuffer
{
  public:
    /** @param entries capacity; @param name for diagnostics. */
    CircularBuffer(std::string name, int64_t entries);

    /**
     * Write one entry (the stage's output for @p tag), advancing the
     * write pointer.  If the slot still holds live data this counts a
     * violation and the old data is lost.
     */
    void write(int64_t tag);

    /**
     * Read the entry holding @p tag.  @p final_read releases the slot
     * for overwriting.  Reading a tag that is not resident counts a
     * violation (the datum was overwritten too early).
     */
    void read(int64_t tag, bool final_read);

    /** True if @p tag currently resides in the buffer. */
    bool contains(int64_t tag) const;

    int64_t capacity() const { return capacity_; }
    int64_t writes() const { return writes_; }
    int64_t reads() const { return reads_; }
    int64_t violations() const { return violations_; }

    /** Maximum number of simultaneously-live entries observed. */
    int64_t peakLive() const { return peak_live_; }

    /**
     * Number of currently-live entries.  Tracked incrementally: the
     * former O(capacity) scan per write made PipelineScheduler::run
     * quadratic in buffer depth for deep networks.
     */
    int64_t liveCount() const { return live_count_; }

    const std::string &name() const { return name_; }

  private:
    struct Slot
    {
        int64_t tag = -1;
        bool live = false;
    };

    /** Drop one live-slot index for @p tag from the tag index. */
    void unindex(int64_t tag, int64_t slot_idx);

    std::string name_;
    int64_t capacity_;
    std::vector<Slot> slots_;

    /**
     * tag -> indices of live slots holding it.  Keeps read() and
     * contains() O(1) amortised instead of an O(capacity) slot scan
     * per op, which dominated event-driven runs on deep networks
     * (d_0 holds 2L+1 entries and every image touches it).  Reads
     * resolve duplicate tags to the lowest slot index, matching the
     * scan-from-slot-0 order of the reference implementation.
     */
    std::unordered_map<int64_t, std::vector<int64_t>> tag_index_;
    int64_t write_idx_ = 0;
    int64_t writes_ = 0;
    int64_t reads_ = 0;
    int64_t violations_ = 0;
    int64_t live_count_ = 0;
    int64_t peak_live_ = 0;
};

} // namespace arch
} // namespace pipelayer

#endif // PIPELAYER_ARCH_BUFFERS_HH_
