/**
 * @file
 * A monotonic, cycle-keyed event queue for the pipeline scheduler.
 *
 * arch::PipelineScheduler::run() used to walk every logical cycle of
 * the schedule horizon, even when most cycles carry no work; this
 * queue is the event-driven replacement (the mgsim idiom): the
 * scheduler bulk-loads its whole schedule with schedule(), then drains
 * one busy cycle at a time with popCycle().  A run's cost becomes
 * O(events log n) instead of O(horizon x stages), and — crucially for
 * large-N schedules — no horizon-sized per-cycle containers are
 * allocated.
 *
 * Determinism rules (the dumps and traces built on top of this queue
 * are byte-identical to the dense cycle walk they replaced):
 *
 *  - events drain in ascending cycle order;
 *  - within one cycle, events drain in FIFO schedule() order — ties
 *    are broken by an insertion sequence number, never by payload
 *    comparison or container internals;
 *  - the queue is loaded, then drained: schedule() after the first
 *    nextCycle()/popCycle() is an error, checked with PL_ASSERT.
 */

#ifndef PIPELAYER_COMMON_EVENT_QUEUE_HH_
#define PIPELAYER_COMMON_EVENT_QUEUE_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace pipelayer {
namespace events {

/**
 * Min-heap of (cycle, sequence)-keyed events.
 *
 * @tparam Payload the event body; kept by value, so it should be a
 *         small trivially-copyable struct (an op descriptor, not the
 *         data it operates on).
 */
template <typename Payload>
class EventQueue
{
  public:
    /** Pre-size the underlying storage for @p n events. */
    void reserve(size_t n) { heap_.reserve(n); }

    /**
     * Enqueue @p payload for @p cycle.  Only while loading: the
     * queue must not have started draining.
     */
    void schedule(int64_t cycle, Payload payload)
    {
        PL_ASSERT(!draining_,
                  "event scheduled at cycle %lld after the queue "
                  "started draining",
                  (long long)cycle);
        heap_.push_back(Item{cycle, next_seq_++, payload});
    }

    bool empty() const { return heap_.empty(); }

    /** Events currently pending. */
    size_t size() const { return heap_.size(); }

    /** Events ever scheduled (deterministic run-size counter). */
    int64_t scheduled() const { return next_seq_; }

    /** The earliest pending cycle.  The queue must not be empty. */
    int64_t nextCycle()
    {
        PL_ASSERT(!heap_.empty(), "nextCycle() on an empty queue");
        startDraining();
        return heap_.front().cycle;
    }

    /**
     * Drain every event pending for @p cycle, appending them to
     * @p out in FIFO order, and return the number drained.  @p cycle
     * must be nextCycle() (the queue is monotonic; skipping a busy
     * cycle would break it).
     */
    size_t popCycle(int64_t cycle, std::vector<Payload> &out)
    {
        startDraining();
        PL_ASSERT(!heap_.empty() && heap_.front().cycle == cycle,
                  "popCycle(%lld) does not match the queue head",
                  (long long)cycle);
        size_t drained = 0;
        while (!heap_.empty() && heap_.front().cycle == cycle) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            out.push_back(heap_.back().payload);
            heap_.pop_back();
            ++drained;
        }
        return drained;
    }

  private:
    struct Item
    {
        int64_t cycle;
        int64_t seq;
        Payload payload;
    };

    /** Max-heap comparator inverted into a (cycle, seq) min-heap. */
    struct Later
    {
        bool operator()(const Item &a, const Item &b) const
        {
            if (a.cycle != b.cycle)
                return a.cycle > b.cycle;
            return a.seq > b.seq;
        }
    };

    /** One O(n) make_heap over the loaded events, on the first drain. */
    void startDraining()
    {
        if (draining_)
            return;
        std::make_heap(heap_.begin(), heap_.end(), Later{});
        draining_ = true;
    }

    std::vector<Item> heap_;
    bool draining_ = false;
    int64_t next_seq_ = 0;
};

} // namespace events
} // namespace pipelayer

#endif // PIPELAYER_COMMON_EVENT_QUEUE_HH_
