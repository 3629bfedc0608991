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
 *
 * A buffer holds at most 2(L-l)+1 entries (plus the scheduler's test
 * slack), so lookups scan the slots from slot 0 and a tag held twice
 * resolves to its lowest slot — the rule of the reference buffer in
 * tests/test_parallel.cc.  Only the live count is kept incrementally.
 */

#ifndef PIPELAYER_ARCH_BUFFERS_HH_
#define PIPELAYER_ARCH_BUFFERS_HH_

#include <cstdint>
#include <string>
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

    /** Lowest slot live with @p tag, or -1 when none is. */
    int64_t find(int64_t tag) const;

    std::string name_;
    int64_t capacity_;
    std::vector<Slot> slots_;
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
