/**
 * @file
 * Randomized stress test of the ladder-queue event scheduler against a
 * naive sorted-reference model.
 *
 * The reference model is an std::multiset ordered by (tick, seq) — the
 * specification of the queue's behaviour. Random interleavings of
 * schedule / cancel / pop (fixed seeds, ~100k ops per profile) must
 * produce identical pop sequences, identical live counts and identical
 * nextTick() answers. nextTick() is also called at random points
 * between schedules and cancels, not only right before a pop, so the
 * queue's memoized peek must survive (or be invalidated by) every
 * kind of operation. Delay profiles are chosen to exercise the
 * near-future bucket ring, the overflow heap, and the boundary between
 * them (including bucket-ring wrap-around).
 */

#include <gtest/gtest.h>

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
            const Tick when =
                now + (span == 0 ? 0 : rng.uniformInt(span));
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
            auto [when, cb] = q.popNext();
            cb();
            ASSERT_EQ(when, expect.when);
            ASSERT_EQ(lastPopped, expect.id);
            ref.erase(ref.begin());
            now = when;
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
        auto [when, cb] = q.popNext();
        cb();
        ASSERT_EQ(when, expect.when);
        ASSERT_EQ(lastPopped, expect.id);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, EventQueueStressTest,
    ::testing::Values(
        // All delays inside the bucket ring (dense same-tick traffic).
        StressProfile{"short", {0, 1, 16, 500, 4000}, 1001},
        // Mostly overflow-heap traffic far beyond the ring.
        StressProfile{"long", {1u << 20, 1u << 24, 1u << 18}, 1002},
        // Mixed, straddling the ring/heap boundary so the same tick
        // can hold both bucketed and heap events.
        StressProfile{
            "mixed", {0, 100, 10000, 16384, 16500, 100000, 1u << 22},
            1003}),
    [](const ::testing::TestParamInfo<StressProfile> &info) {
        return info.param.name;
    });

} // namespace
} // namespace uqsim
