/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/event_queue.hh"

namespace uqsim {
namespace {

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.executedCount(), 0u);
}

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickFiresFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.popNext().second();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsFiringTime)
{
    EventQueue q;
    q.schedule(123, [] {});
    EXPECT_EQ(q.nextTick(), 123u);
    auto [when, cb] = q.popNext();
    EXPECT_EQ(when, 123u);
    cb();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventHandle h = q.schedule(5, [&] { fired = true; });
    EXPECT_TRUE(h.valid());
    h.cancel();
    EXPECT_TRUE(h.isCancelled());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent)
{
    EventQueue q;
    EventHandle h = q.schedule(5, [] {});
    h.cancel();
    h.cancel();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelMiddleEventSkipsOnlyIt)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventHandle h = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    h.cancel();
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventHandle h = q.schedule(1, [] {});
    auto [when, cb] = q.popNext();
    cb();
    EXPECT_TRUE(h.hasFired());
    h.cancel(); // must not corrupt the live count
    EXPECT_TRUE(q.empty());
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, DefaultHandleIsInvalid)
{
    EventHandle h;
    EXPECT_FALSE(h.valid());
    h.cancel(); // safe no-op
}

TEST(EventQueueTest, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] { ++fired; });
    });
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.executedCount(), 2u);
}

TEST(EventQueueTest, PeekThenEarlierScheduleReturnsTheNewEvent)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(50, [&] { order.push_back(50); });
    ASSERT_EQ(q.nextTick(), 50u); // memoizes the tick-50 event
    q.schedule(20, [&] { order.push_back(20); });
    EXPECT_EQ(q.nextTick(), 20u);
    auto [when, cb] = q.popNext();
    cb();
    EXPECT_EQ(when, 20u);
    EXPECT_EQ(order, (std::vector<int>{20}));
    // Also across the overflow heap: an earlier bucketed event beats a
    // memoized far-future one.
    EventQueue far;
    far.schedule(Tick(1) << 30, [] {});
    ASSERT_EQ(far.nextTick(), Tick(1) << 30);
    far.schedule(7, [] {});
    EXPECT_EQ(far.popNext().first, 7u);
}

TEST(EventQueueTest, PeekThenCancelPeekedEventSkipsIt)
{
    EventQueue q;
    std::vector<int> order;
    EventHandle first = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(30, [&] { order.push_back(3); });
    ASSERT_EQ(q.nextTick(), 10u); // memoizes the event about to die
    first.cancel();
    EXPECT_EQ(q.nextTick(), 30u);
    auto [when, cb] = q.popNext();
    cb();
    EXPECT_EQ(when, 30u);
    EXPECT_EQ(order, (std::vector<int>{3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeekThenSameTickScheduleKeepsFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(42, [&] { order.push_back(1); });
    ASSERT_EQ(q.nextTick(), 42u);
    q.schedule(42, [&] { order.push_back(2); });
    ASSERT_EQ(q.nextTick(), 42u);
    q.schedule(42, [&] { order.push_back(3); });
    while (!q.empty())
        q.popNext().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelledTimeoutCycleIsReleased)
{
    // A callback that owns the handle of its own event: the shape of a
    // per-attempt timeout. Once the event is cancelled and the queue
    // purges it, the callback (and the state it owns) must be freed.
    struct State
    {
        EventHandle timeout;
        bool *destroyed;
        ~State() { *destroyed = true; }
    };
    bool destroyed = false;
    EventQueue q;
    {
        auto st = std::make_shared<State>();
        st->destroyed = &destroyed;
        st->timeout = q.schedule(5, [st] { (void)st; });
        q.schedule(10, [] {});
        st->timeout.cancel();
    }
    EXPECT_FALSE(destroyed); // still queued, cancelled lazily
    while (!q.empty())
        q.popNext().second();
    EXPECT_TRUE(destroyed);
}

TEST(EventQueueTest, QueueDestructionFreesQueuedCallbacks)
{
    bool destroyed = false;
    struct Flag
    {
        bool *destroyed;
        ~Flag() { *destroyed = true; }
    };
    EventHandle outlives;
    {
        EventQueue q;
        auto flag = std::make_shared<Flag>();
        flag->destroyed = &destroyed;
        outlives = q.schedule(5, [flag] { (void)flag; });
    }
    EXPECT_TRUE(destroyed);
    // The handle outlived its queue and reports the event as gone.
    EXPECT_TRUE(outlives.valid());
    EXPECT_TRUE(outlives.isCancelled());
    outlives.cancel(); // safe no-op
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    for (int i = 0; i < 10000; ++i)
        q.schedule(static_cast<Tick>((i * 7919) % 1000), [] {});
    while (!q.empty()) {
        auto [when, cb] = q.popNext();
        EXPECT_GE(when, last);
        last = when;
        cb();
    }
    EXPECT_EQ(q.executedCount(), 10000u);
}

} // namespace
} // namespace uqsim
