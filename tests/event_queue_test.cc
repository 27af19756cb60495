/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/event_queue.hh"

namespace uqsim {
namespace {

/** Run every queued event; @return the clock after the last one. */
Tick
drain(EventQueue &q)
{
    Tick now = 0;
    while (!q.empty())
        q.runNext(now);
    return now;
}

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
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickFiresFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    drain(q);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsFiringTime)
{
    EventQueue q;
    Tick now = 0;
    Tick seen = 0;
    q.schedule(123, [&] { seen = now; });
    EXPECT_EQ(q.nextTick(), 123u);
    q.runNext(now);
    EXPECT_EQ(now, 123u);
    EXPECT_EQ(seen, 123u);
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
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventHandle h = q.schedule(1, [] {});
    drain(q);
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
    drain(q);
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
    Tick now = 0;
    q.runNext(now);
    EXPECT_EQ(now, 20u);
    EXPECT_EQ(order, (std::vector<int>{20}));
    // Also across the overflow heap: an earlier event beats a memoized
    // far-future one, even though the peek moved the wheel up to it.
    EventQueue far;
    far.schedule(Tick(1) << 30, [] {});
    ASSERT_EQ(far.nextTick(), Tick(1) << 30);
    far.schedule(7, [] {});
    Tick farNow = 0;
    far.runNext(farNow);
    EXPECT_EQ(farNow, 7u);
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
    Tick now = 0;
    q.runNext(now);
    EXPECT_EQ(now, 30u);
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
    drain(q);
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
    drain(q);
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
    Tick now = 0;
    for (int i = 0; i < 10000; ++i)
        q.schedule(static_cast<Tick>((i * 7919) % 1000), [] {});
    while (!q.empty()) {
        const Tick last = now;
        q.runNext(now);
        EXPECT_GE(now, last);
    }
    EXPECT_EQ(q.executedCount(), 10000u);
}

// -- Timing-wheel transitions -------------------------------------------

/** First tick past the coarse level of a fresh queue: the heap's. */
constexpr Tick kHeapEdge = EventQueue::kFineSpan * EventQueue::kCoarseSlots;

/** Schedule an event at @p when that logs @p id. */
void
logAt(EventQueue &q, std::vector<int> &log, Tick when, int id)
{
    q.schedule(when, [&log, id] { log.push_back(id); });
}

TEST(EventQueueTest, WheelFineCoarseEdgeKeepsOrder)
{
    EventQueue q;
    std::vector<int> order;
    constexpr Tick kEdge = EventQueue::kFineSpan;
    logAt(q, order, kEdge + 1, 4); // coarse
    logAt(q, order, kEdge, 3);     // coarse, first tick of block 1
    logAt(q, order, kEdge - 1, 2); // fine, last tick of block 0
    logAt(q, order, 0, 1);         // fine
    logAt(q, order, kEdge, 5);     // coarse, same tick as 3
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
}

TEST(EventQueueTest, WheelCoarseHeapEdgeKeepsOrder)
{
    EventQueue q;
    std::vector<int> order;
    logAt(q, order, kHeapEdge + 1, 5);                        // heap
    logAt(q, order, kHeapEdge, 4);                            // heap
    logAt(q, order, kHeapEdge - 1, 3);                        // last coarse
    logAt(q, order, kHeapEdge - EventQueue::kFineSpan, 2);    // coarse
    logAt(q, order, 1, 1);                                    // fine
    logAt(q, order, kHeapEdge, 6);                            // heap, FIFO
    Tick now = 0;
    std::vector<Tick> ticks;
    while (!q.empty()) {
        q.runNext(now);
        ticks.push_back(now);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 6, 5}));
    EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()));
}

TEST(EventQueueTest, SameTickFifoSurvivesCascade)
{
    // One tick, reached through every level: first on the heap, then
    // in a coarse slot once the wheel has moved closer, then in the
    // fine level after the cascade. Scheduling order must win.
    EventQueue q;
    std::vector<int> order;
    const Tick t = kHeapEdge + 5;
    logAt(q, order, t, 2);                            // heap
    logAt(q, order, 2 * EventQueue::kFineSpan, 0);    // moves the wheel
    Tick now = 0;
    q.runNext(now);
    ASSERT_EQ(order, (std::vector<int>{0}));
    logAt(q, order, t, 3);     // coarse now
    logAt(q, order, t - 1, 1); // coarse, same slot, earlier tick
    logAt(q, order, t, 4);
    logAt(q, order, t + 1, 6);
    ASSERT_EQ(q.nextTick(), t - 1); // cascades the slot
    logAt(q, order, t, 5);          // fine
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueTest, HeapEventMovingTheWheelCascadesItsCoarseBlock)
{
    // The heap's top is the next event and its block also has a coarse
    // slot: moving the fine level up to the heap event must cascade
    // that slot, or later events of the block overtake it.
    EventQueue q;
    std::vector<int> order;
    const Tick base = kHeapEdge;
    logAt(q, order, base + 1, 1);                  // heap
    logAt(q, order, 2 * EventQueue::kFineSpan, 0); // moves the wheel
    Tick now = 0;
    q.runNext(now);
    logAt(q, order, base + 3, 3); // coarse slot of the heap event's block
    q.runNext(now);               // the heap event
    ASSERT_EQ(now, base + 1);
    logAt(q, order, base + 4, 4); // fine
    logAt(q, order, base + 2, 2); // fine
    std::vector<Tick> ticks;
    while (!q.empty()) {
        q.runNext(now);
        ticks.push_back(now);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(ticks, (std::vector<Tick>{base + 2, base + 3, base + 4}));
}

TEST(EventQueueTest, ScheduleBehindAPeekMovedWheelRunsFirst)
{
    // A peek may move the wheel past the clock (the partition engine
    // peeks every shard, then delivers mail). Ticks behind the moved
    // wheel must still run first, at the block edge and deep behind.
    EventQueue q;
    std::vector<int> order;
    const Tick far = 5 * EventQueue::kFineSpan + 3;
    logAt(q, order, far, 4);
    logAt(q, order, kHeapEdge * 3, 5);
    ASSERT_EQ(q.nextTick(), far);
    logAt(q, order, far - 3 - 1, 3); // the block just behind
    logAt(q, order, 100, 1);         // far behind
    logAt(q, order, far - 1, 4);     // the moved wheel's own block
    logAt(q, order, 100, 2);
    EXPECT_EQ(q.nextTick(), 100u);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 4, 5}));
}

// -- Multi-tick fine buckets ------------------------------------------
//
// Ticks 3 to 201 share one fine bucket, so its order is the sorted
// insert's, not the chain's append order.
static_assert(EventQueue::kBucketSpan > 201);

TEST(EventQueueTest, BucketTicksScheduledInReverseRunInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    logAt(q, order, 200, 3);
    logAt(q, order, 150, 2); // before the head
    logAt(q, order, 3, 1);   // before the head
    logAt(q, order, 170, 2); // between head and tail
    logAt(q, order, 201, 4); // after the tail
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 2, 3, 4}));
}

TEST(EventQueueTest, CascadedBucketKeepsTickOrder)
{
    // The same ticks filed in a coarse slot, which keeps scheduling
    // order: the cascade must sort them into their fine bucket.
    EventQueue q;
    std::vector<int> order;
    const Tick base = 3 * EventQueue::kFineSpan;
    logAt(q, order, base + 200, 4);
    logAt(q, order, base + 150, 2);
    logAt(q, order, base + 3, 1);
    logAt(q, order, base + 150, 3); // same tick as 2: behind it
    logAt(q, order, base + 200, 5);
    Tick now = 0;
    std::vector<Tick> ticks;
    while (!q.empty()) {
        q.runNext(now);
        ticks.push_back(now);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(ticks, (std::vector<Tick>{base + 3, base + 150, base + 150,
                                        base + 200, base + 200}));
}

TEST(EventQueueTest, PeekThenEarlierTickInItsBucketRunsFirst)
{
    EventQueue q;
    std::vector<int> order;
    logAt(q, order, 120, 3);
    logAt(q, order, 130, 4);
    ASSERT_EQ(q.nextTick(), 120u); // memoizes the bucket's head
    logAt(q, order, 90, 2);        // the same bucket, before the memo
    EXPECT_EQ(q.nextTick(), 90u);
    logAt(q, order, 120, 3); // the memo's tick: behind it
    logAt(q, order, 5, 1);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 3, 4}));
}

TEST(EventQueueTest, SameTickFifoInsideAMultiTickBucket)
{
    EventQueue q;
    std::vector<int> order;
    logAt(q, order, 200, 5);
    logAt(q, order, 100, 1);
    logAt(q, order, 200, 6);
    logAt(q, order, 100, 2);
    logAt(q, order, 150, 4);
    logAt(q, order, 100, 3);
    logAt(q, order, 200, 7);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, CallbackDroppingItsLastHandleKeepsItsNode)
{
    EventQueue q;
    std::vector<int> order;
    EventHandle self;
    self = q.schedule(10, [&q, &order, &self, tag = 1] {
        EXPECT_TRUE(self.hasFired());
        self = EventHandle(); // the last handle to the running node
        // Would be built in the running node if the drop recycled it.
        q.schedule(20, [&order, a = 2, b = 0, c = 0, d = 0] {
            order.push_back(a + b + c + d);
        });
        order.push_back(tag);
    });
    drain(q);
    logAt(q, order, 30, 3);
    logAt(q, order, 30, 4);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbackCancellingItsOwnHandleIsANoop)
{
    EventQueue q;
    std::vector<int> order;
    EventHandle self;
    self = q.schedule(10, [&] {
        self.cancel();
        EXPECT_TRUE(self.hasFired());
        EXPECT_FALSE(self.isCancelled());
        EXPECT_EQ(q.size(), 1u); // only the event at 20
        order.push_back(1);
    });
    logAt(q, order, 20, 2);
    drain(q);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(self.hasFired());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CallbackDestructionDroppingTheLastHandleRecyclesOnce)
{
    // The callback owns the only handle to its own node; destroying the
    // callback after the call drops it. The node must go back to the
    // pool exactly once, or two later events would share it.
    struct Owner
    {
        EventHandle self;
        bool *destroyed;
        ~Owner() { *destroyed = true; }
    };
    bool destroyed = false;
    EventQueue q;
    std::vector<int> order;
    {
        auto owner = std::make_shared<Owner>();
        owner->destroyed = &destroyed;
        owner->self = q.schedule(10, [owner, &order] {
            order.push_back(owner->self.hasFired() ? 1 : -1);
        });
    }
    drain(q);
    EXPECT_TRUE(destroyed);
    logAt(q, order, 20, 2);
    logAt(q, order, 20, 3);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, DestructionFreesEventsOnEveryLevel)
{
    // A live and a cancelled event in the fine level, a coarse slot,
    // the far heap and the heap behind a peek-moved wheel, each holding
    // a copy of `token`: destroying the queue must free every one (LSan
    // checks the same under the sanitizer build).
    auto token = std::make_shared<int>(0);
    std::vector<EventHandle> cancelled;
    {
        EventQueue q;
        q.schedule(3 * EventQueue::kFineSpan, [token] { (void)token; });
        ASSERT_EQ(q.nextTick(), 3 * EventQueue::kFineSpan); // moves
        const Tick ticks[] = {3 * EventQueue::kFineSpan + 1,
                              5 * EventQueue::kFineSpan, 4 * kHeapEdge, 6};
        for (const Tick t : ticks) {
            q.schedule(t, [token] { (void)token; });
            cancelled.push_back(q.schedule(t, [token] { (void)token; }));
            cancelled.back().cancel();
        }
        EXPECT_EQ(token.use_count(), 1 + 1 + 8);
    }
    EXPECT_EQ(token.use_count(), 1);
    for (const EventHandle &h : cancelled)
        EXPECT_TRUE(h.isCancelled());
}

} // namespace
} // namespace uqsim
