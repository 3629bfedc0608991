/**
 * @file
 * Determinism tests of the monotonic event queue the pipeline
 * scheduler drains (common/event_queue.hh): ascending cycle order,
 * FIFO within a cycle, and load-then-drain enforced.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"

namespace pipelayer {
namespace events {
namespace {

TEST(EventQueue, DrainsCyclesInAscendingOrder)
{
    EventQueue<int> q;
    q.schedule(7, 70);
    q.schedule(3, 30);
    q.schedule(11, 110);
    q.schedule(3, 31);

    std::vector<int64_t> cycles;
    std::vector<int> payloads;
    while (!q.empty()) {
        const int64_t cycle = q.nextCycle();
        cycles.push_back(cycle);
        std::vector<int> span;
        q.popCycle(cycle, span);
        payloads.insert(payloads.end(), span.begin(), span.end());
    }
    EXPECT_EQ(cycles, (std::vector<int64_t>{3, 7, 11}));
    EXPECT_EQ(payloads, (std::vector<int>{30, 31, 70, 110}));
    EXPECT_EQ(q.scheduled(), 4);
}

TEST(EventQueue, FifoWithinOneCycle)
{
    // Ties break by insertion order, never by payload value: a
    // descending payload sequence must drain in schedule() order.
    EventQueue<int> q;
    for (int i = 9; i >= 0; --i)
        q.schedule(5, i);
    std::vector<int> span;
    EXPECT_EQ(q.popCycle(q.nextCycle(), span), 9 + 1u);
    EXPECT_EQ(span, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingIntoTheDrainedPastDies)
{
    EventQueue<int> q;
    q.schedule(5, 1);
    std::vector<int> span;
    q.popCycle(q.nextCycle(), span);
    EXPECT_DEATH(q.schedule(4, 2), "after the queue started draining");
}

TEST(EventQueue, PoppingTheWrongCycleDies)
{
    EventQueue<int> q;
    q.schedule(5, 1);
    std::vector<int> span;
    EXPECT_DEATH(q.popCycle(6, span), "does not match the queue head");
}

TEST(EventQueue, SchedulingAfterTheFirstDrainDies)
{
    // The queue is loaded, then drained: once draining starts, even
    // work for the current or a future cycle can no longer be added.
    EventQueue<int> q;
    q.schedule(2, 1);
    q.schedule(4, 2);
    EXPECT_EQ(q.nextCycle(), 2);
    EXPECT_DEATH(q.schedule(6, 3), "after the queue started draining");
    std::vector<int> span;
    q.popCycle(2, span);
    EXPECT_DEATH(q.schedule(2, 4), "after the queue started draining");
}

} // namespace
} // namespace events
} // namespace pipelayer
