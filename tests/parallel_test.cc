/**
 * @file
 * ParallelSimulator / SimContext engine tests.
 *
 * The sharded core's contract, exercised without any model on top:
 * a Simulator matches a bare one-shard engine; digests
 * at a fixed shard count never depend on the worker-thread count;
 * cross-shard mail merges in deterministic (when, src, seq) order, and
 * mail still pending when an engine is destroyed is destroyed exactly
 * once; and the conservative-lookahead and past-scheduling invariants
 * die loudly when violated.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "core/sim_context.hh"
#include "core/simulator.hh"

namespace uqsim {
namespace {

/** A deterministic little event program, parameterized by context. */
void
seedProgram(SimContext ctx, unsigned depth = 0)
{
    if (depth >= 5)
        return;
    for (Tick d : {3u, 7u, 11u})
        ctx.schedule(d, [ctx, depth]() mutable {
            seedProgram(ctx, depth + 1);
        });
}

TEST(ParallelTest, SingleShardMatchesSimulator)
{
    Simulator sim;
    seedProgram(SimContext(sim));
    sim.run();

    ParallelSimulator par({1, kMaxTick, 1});
    seedProgram(par.context(0));
    par.run();

    EXPECT_GT(sim.eventsExecuted(), 0u);
    EXPECT_EQ(par.eventsExecuted(), sim.eventsExecuted());
    EXPECT_EQ(par.executionDigest(), sim.executionDigest());
}

TEST(ParallelTest, SingleShardRunUntilMatchesSimulator)
{
    Simulator sim;
    seedProgram(SimContext(sim));
    sim.runUntil(20);

    ParallelSimulator par({1, kMaxTick, 1});
    seedProgram(par.context(0));
    par.runUntil(20);

    EXPECT_EQ(par.executionDigest(), sim.executionDigest());
    EXPECT_EQ(par.now(0), sim.now());
    EXPECT_EQ(par.context(0).now(), sim.now());
}

/** Cross-shard ping-pong under a finite lookahead. */
std::uint64_t
pingPongDigest(unsigned threads)
{
    ParallelSimulator par({2, /*lookahead=*/10, threads});
    std::array<SimContext, 2> ctx{par.context(0), par.context(1)};

    // Each bounce runs on its own shard (mail callbacks capture the
    // *destination* context), schedules a local filler event and
    // reposts to the peer >= lookahead out.
    std::function<void(unsigned, unsigned)> bounce =
        [&](unsigned shard, unsigned hops) {
            if (hops == 0)
                return;
            SimContext c = ctx[shard];
            c.schedule(1, []() {});
            const unsigned peer = 1 - shard;
            c.postToShard(peer, 10 + hops % 3, [&bounce, peer, hops]() {
                bounce(peer, hops - 1);
            });
        };
    // Launch from both sides so mail flows in both directions.
    ctx[0].schedule(0, [&bounce]() { bounce(0, 12); });
    ctx[1].schedule(2, [&bounce]() { bounce(1, 12); });
    par.run();
    EXPECT_GT(par.eventsExecuted(), 20u);
    return par.executionDigest();
}

TEST(ParallelTest, CrossShardPingPongThreadInvariant)
{
    const std::uint64_t one = pingPongDigest(1);
    const std::uint64_t two = pingPongDigest(2);
    EXPECT_EQ(one, two);
}

TEST(ParallelTest, MailMergesInDeterministicOrder)
{
    // Several senders post events that all land at the *same* tick on
    // shard 0; the merge must order them by (when, src, seq) no matter
    // which worker appended to the mailbox first.
    auto run = [](unsigned threads) {
        std::vector<int> order;
        ParallelSimulator par({3, /*lookahead=*/5, threads});
        for (unsigned s = 1; s < 3; ++s) {
            SimContext ctx = par.context(s);
            ctx.schedule(1, [ctx, s, &order]() mutable {
                for (int k = 0; k < 3; ++k)
                    ctx.postToShard(0, 9, [s, k, &order]() {
                        order.push_back(static_cast<int>(s) * 10 + k);
                    });
            });
        }
        par.run();
        return order;
    };
    const std::vector<int> expect{10, 11, 12, 20, 21, 22};
    EXPECT_EQ(run(1), expect);
    EXPECT_EQ(run(2), expect);
}

/** Counts the destructions of live (not moved-from) instances. */
struct DestroyCounter
{
    explicit DestroyCounter(int &destroyed) : destroyed(&destroyed) {}
    DestroyCounter(DestroyCounter &&other) noexcept
        : destroyed(std::exchange(other.destroyed, nullptr))
    {}
    ~DestroyCounter()
    {
        if (destroyed)
            ++*destroyed;
    }

    int *destroyed;
};

TEST(ParallelTest, EngineTeardownDestroysPendingMailOnce)
{
    int destroyed = 0;
    int ran = 0;
    {
        ParallelSimulator par({2, /*lookahead=*/10, 1});
        SimContext a = par.context(0);
        SimContext b = par.context(1);
        // One small closure and one too large for an EventCallback.
        const std::array<std::uint64_t, 10> pad{};
        auto post = [&destroyed, &ran, pad](SimContext from, unsigned dst,
                                             Tick delay) {
            from.postToShard(dst, delay,
                             [c = DestroyCounter(destroyed), &ran]() {
                                 ++ran;
                             });
            auto large = [c = DestroyCounter(destroyed), &ran, pad]() {
                ran += 1 + static_cast<int>(pad[0]);
            };
            static_assert(!EventCallback::fitsInline<decltype(large)>());
            from.postToShard(dst, delay, std::move(large));
        };
        // Due at 40: delivered and run inside runUntil(40).
        a.schedule(30, [&post, a]() { post(a, 1, 10); });
        // Due at 50 on shard 1 and (same-shard) at 60 on shard 0: in
        // slots, behind scheduled trampolines, when the run stops.
        a.schedule(35, [&post, a]() {
            post(a, 1, 15);
            post(a, 0, 25);
        });
        par.runUntil(40);
        EXPECT_EQ(ran, 2);
        EXPECT_EQ(destroyed, 2);
        // Posted by the driver between runs: still in shard 1's outbox.
        post(b, 0, 20);
    }
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(destroyed, 8);
}

TEST(ParallelTest, FixedShardCountDigestIgnoresThreads)
{
    auto digest = [](unsigned threads) {
        ParallelSimulator par({4, kMaxTick, threads});
        for (unsigned s = 0; s < 4; ++s)
            seedProgram(par.context(s));
        par.run();
        return par.executionDigest();
    };
    const std::uint64_t one = digest(1);
    EXPECT_EQ(digest(2), one);
    EXPECT_EQ(digest(4), one);
    // More threads than shards is capped, not an error.
    EXPECT_EQ(digest(16), one);
}

TEST(ParallelTest, IdenticalShardsDoNotCancel)
{
    // Shards run identical programs, so their digests are equal; the
    // composition must still depend on the shard count (a plain XOR
    // would collapse any even number of replicas to 0).
    ParallelSimulator two({2, kMaxTick, 1});
    for (unsigned s = 0; s < 2; ++s)
        seedProgram(two.context(s));
    two.run();
    EXPECT_EQ(two.shardDigest(0), two.shardDigest(1));
    EXPECT_NE(two.executionDigest(), 0u);
    EXPECT_NE(two.executionDigest(), two.shardDigest(0));
}

TEST(ParallelTest, RunUntilAdvancesIdleShardClocks)
{
    ParallelSimulator par({2, kMaxTick, 1});
    par.context(0).schedule(5, []() {});
    // Shard 1 stays empty; its clock must still land on the deadline.
    par.runUntil(100);
    EXPECT_EQ(par.now(0), 100u);
    EXPECT_EQ(par.now(1), 100u);
}

TEST(ParallelTest, ContextRunForStartsFromTheLatestShardClock)
{
    ParallelSimulator par({2, kMaxTick, 1});
    SimContext a = par.context(0);
    a.schedule(5, []() {});
    par.context(1).schedule(500, []() {});
    par.run(); // run() leaves each clock at its last event
    ASSERT_EQ(par.now(0), 5u);
    ASSERT_EQ(par.now(1), 500u);

    // Shard 0's context drives the whole world, from its latest clock.
    bool fired = false;
    a.scheduleAt(550, [&fired]() { fired = true; });
    a.runFor(100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(par.now(0), 600u);
    EXPECT_EQ(par.now(1), 600u);
}

TEST(ParallelTest, EventHandleCancelIsIdempotentAcrossShards)
{
    ParallelSimulator par({2, /*lookahead=*/10, 1});
    SimContext a = par.context(0);
    SimContext b = par.context(1);

    int fired = 0;
    EventHandle pending = a.schedule(50, [&fired]() { ++fired; });
    EventHandle early = a.schedule(1, [&fired]() { ++fired; });

    // Double-cancel before anything runs: the second is a no-op.
    pending.cancel();
    pending.cancel();

    // Cancel of an already-executed event, issued from the other
    // shard's event code after the rounds have moved past it.
    b.schedule(15, [&early]() mutable { early.cancel(); });
    par.runUntil(30);
    EXPECT_EQ(fired, 1); // 'early' fired once, 'pending' never did

    // Double-cancel across the executed/cancelled boundary: no-ops.
    early.cancel();
    pending.cancel();
    par.run();
    EXPECT_EQ(fired, 1);
}

TEST(ParallelDeathTest, CrossShardBelowLookaheadDies)
{
    ParallelSimulator par({2, /*lookahead=*/100, 1});
    SimContext a = par.context(0);
    a.schedule(0, [a]() mutable {
        a.postToShard(1, 5, []() {}); // 5 < lookahead 100
    });
    EXPECT_DEATH(par.run(), "violates lookahead");
}

TEST(ParallelDeathTest, CrossShardWithoutChannelsDies)
{
    // kMaxTick lookahead declares "no cross-shard channels"; any
    // cross-shard post is then a modelling error.
    ParallelSimulator par({2, kMaxTick, 1});
    SimContext a = par.context(0);
    a.schedule(0, [a]() mutable { a.postToShard(1, 1000, []() {}); });
    EXPECT_DEATH(par.run(), "lookahead");
}

TEST(ParallelDeathTest, ScheduleAtInThePastReportsTicks)
{
    ParallelSimulator par({2, kMaxTick, 1});
    SimContext a = par.context(0);
    a.schedule(10, [a]() mutable { a.scheduleAt(3, []() {}); });
    // The message must name the offending tick, the distance and the
    // clock so the report is actionable.
    EXPECT_DEATH(par.run(),
                 "scheduleAt\\(when=3\\) is 7 ticks in the past "
                 "\\(now=10, shard 0\\)");
}

TEST(ParallelDeathTest, SimulatorScheduleAtInThePastReportsTicks)
{
    // A Simulator is shard 0 of a one-shard engine: one message.
    Simulator sim;
    sim.schedule(10, [&sim]() { sim.scheduleAt(4, []() {}); });
    EXPECT_DEATH(sim.run(), "scheduleAt\\(when=4\\) is 6 ticks in the "
                            "past \\(now=10, shard 0\\)");
}

TEST(ParallelDeathTest, ZeroLookaheadRejected)
{
    EXPECT_DEATH(
        {
            ParallelSimulator par({2, 0, 1});
        },
        "zero lookahead");
}

} // namespace
} // namespace uqsim
