/**
 * @file
 * Randomized stress test of the timing-wheel event scheduler against a
 * naive sorted-reference model.
 *
 * The reference model is an std::multiset ordered by (tick, seq) — the
 * specification of the queue's behaviour. Random interleavings of
 * schedule / cancel / pop (fixed seeds, ~100k ops per profile) must
 * produce identical pop sequences, identical live counts and identical
 * nextTick() answers. nextTick() is also called at random points
 * between schedules and cancels, not only right before a pop, so the
 * queue's memoized peek must survive (or be invalidated by) every
 * kind of operation. Delay profiles are chosen to exercise the fine
 * level, the coarse level, the overflow heap and the edges between
 * them (including coarse-ring wrap-around). Anchored profiles peek and
 * then schedule around the next pending event, as the partition
 * engine does when it delivers mail after peeking every shard: a peek
 * may move the wheel past the clock, and ticks behind it must still
 * come first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <vector>

#include "core/event_queue.hh"
#include "core/rng.hh"

namespace uqsim {
namespace {

struct RefEvent
{
    Tick when;
    std::uint64_t seq; // scheduling order, the FIFO tie-breaker
    int id;

    bool
    operator<(const RefEvent &o) const
    {
        if (when != o.when)
            return when < o.when;
        return seq < o.seq;
    }
};

struct StressProfile
{
    const char *name;
    /** Candidate delays ahead of the last popped tick. */
    std::vector<Tick> delaySpans;
    std::uint64_t seed;
    /** Share of schedules placed around the next pending event. */
    double anchorShare = 0.0;
};

// Prints a profile as its name, so the test listing (and the CTest names
// built from it) does not embed the address held in `name`.
void
PrintTo(const StressProfile &profile, std::ostream *os)
{
    *os << profile.name;
}

class EventQueueStressTest
    : public ::testing::TestWithParam<StressProfile>
{};

TEST_P(EventQueueStressTest, MatchesReferenceModel)
{
    const StressProfile &profile = GetParam();
    Rng rng(profile.seed);
    // A stream of its own, so the operation sequence is the same with
    // or without the extra peeks.
    Rng peekRng(profile.seed ^ 0x5045454bull);

    EventQueue q;
    std::multiset<RefEvent> ref;
    // Outstanding (possibly fired or cancelled) handles with their
    // reference keys, so cancels can hit any past event.
    std::vector<std::pair<EventHandle, RefEvent>> handles;

    Tick now = 0;        // last popped tick
    std::uint64_t seq = 0;
    int nextId = 0;
    int lastPopped = -1;

    constexpr int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        const double r = rng.uniform01();
        if (r < 0.55 || q.empty()) {
            // Schedule at a random delay from a profile-chosen span;
            // span 0 means "exactly now" to stress same-tick FIFO.
            const Tick span = profile.delaySpans[rng.uniformInt(
                profile.delaySpans.size())];
            const Tick delay = span == 0 ? 0 : rng.uniformInt(span);
            Tick when = now + delay;
            if (profile.anchorShare > 0.0 && !ref.empty() &&
                rng.bernoulli(profile.anchorShare)) {
                // Peek first, then land just behind the next event
                // (never behind the clock) or at/after it.
                const Tick next = q.nextTick();
                ASSERT_EQ(next, ref.begin()->when);
                when = rng.bernoulli(0.5)
                           ? next - std::min(delay, next - now)
                           : next + delay;
            }
            const int id = nextId++;
            EventHandle h =
                q.schedule(when, [&lastPopped, id] { lastPopped = id; });
            ref.insert(RefEvent{when, seq, id});
            handles.emplace_back(std::move(h), RefEvent{when, seq, id});
            ++seq;
        } else if (r < 0.70) {
            // Cancel a random handle; mirrors on the reference only if
            // the event has not fired yet.
            auto &[h, key] = handles[rng.uniformInt(handles.size())];
            const auto it = ref.find(key);
            const bool wasPending = it != ref.end();
            ASSERT_EQ(wasPending, h.valid() && !h.hasFired() &&
                                      !h.isCancelled());
            h.cancel();
            if (wasPending) {
                ref.erase(it);
                ASSERT_TRUE(h.isCancelled());
            }
        } else {
            // A pop; the peek right before it is the run loop's.
            ASSERT_FALSE(ref.empty());
            const RefEvent expect = *ref.begin();
            ASSERT_EQ(q.nextTick(), expect.when);
            q.runNext(now);
            ASSERT_EQ(now, expect.when);
            ASSERT_EQ(lastPopped, expect.id);
            ref.erase(ref.begin());
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
        // A peek between operations: memoizes a node the next
        // schedule or cancel may have to invalidate.
        if (!ref.empty() && peekRng.bernoulli(0.3)) {
            ASSERT_EQ(q.nextTick(), ref.begin()->when);
        }
    }

    // Drain: the full remaining order must match the reference.
    while (!ref.empty()) {
        const RefEvent expect = *ref.begin();
        q.runNext(now);
        ASSERT_EQ(now, expect.when);
        ASSERT_EQ(lastPopped, expect.id);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, EventQueueStressTest,
    ::testing::Values(
        // Dense same-tick traffic in the fine level and the first few
        // coarse slots.
        StressProfile{"short", {0, 1, 16, 500, 4000}, 1001},
        // Mostly overflow-heap traffic far beyond the coarse level.
        StressProfile{"long", {1u << 20, 1u << 24, 1u << 18}, 1002},
        // Mixed, over all three levels, so one tick can be reached
        // through the heap, a coarse slot and the fine level.
        StressProfile{
            "mixed", {0, 100, 10000, 16384, 16500, 100000, 1u << 22},
            1003},
        // Delays around one fine block: every cascade, and the
        // fine/coarse edge on both sides.
        StressProfile{"fineedge", {1, 1000, 1023, 1024, 1025, 2048}, 1004},
        // Delays around the coarse/heap edge (kFineSpan * kCoarseSlots
        // ticks), so heap events land in blocks the wheel reaches.
        StressProfile{"coarseedge",
                      {1, 2000, (1u << 20) - 1024, 1u << 20,
                       (1u << 20) + 1024, 1u << 21},
                      1005},
        // Mail after a peek: a third of the schedules land around the
        // next pending event, often behind a peek-moved wheel.
        StressProfile{"anchored", {0, 1, 700, 1024, 5000, 1u << 20},
                      1006, 0.35},
        // The same with the social-network shape: most delays a few
        // blocks out, some far beyond the coarse level.
        StressProfile{"anchoredsocial",
                      {16, 12000, 16000, 130000, 1u << 22}, 1007, 0.2}),
    [](const ::testing::TestParamInfo<StressProfile> &info) {
        return info.param.name;
    });

} // namespace
} // namespace uqsim
