/**
 * @file
 * Heap-allocation budget of the request path.
 *
 * A separate executable, because it replaces the global operator new
 * with a counting one. It drives the 36-tier social network open-loop
 * at 3000 qps (0.5 s warm-up, then 1 s measured) and checks that the
 * measured second allocates at most kBudget times per injected
 * request. The request path runs on pooled frames, inline callbacks
 * and pooled event nodes; what is left per request is the Request
 * object itself and the amortized growth of queues and pools. A second
 * case bounces one event between two shards and checks that, once the
 * mailboxes have grown, a round of cross-shard mail allocates nothing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "apps/social_network.hh"
#include "core/parallel.hh"
#include "counting_new.hh"
#include "workload/generators.hh"

namespace uqsim {
namespace {

/** Allocations allowed per injected request, measured steady state. */
constexpr double kBudget = 10.0;

TEST(AllocBudgetTest, SocialNetworkRequestPathStaysWithinBudget)
{
    apps::WorldConfig c;
    c.workerServers = 5;
    apps::World w(c);
    apps::buildSocialNetwork(w);
    workload::OpenLoopGenerator gen(
        *w.app, workload::QueryMix::fromApp(*w.app),
        workload::UserPopulation::uniform(1000), 43);
    gen.setQps(3000.0);
    gen.start();
    w.ctx.runFor(kTicksPerSec / 2); // pools and queues grow here

    const std::uint64_t allocs0 = countedAllocations();
    const std::uint64_t injected0 = w.app->injected();
    w.ctx.runFor(kTicksPerSec);
    const std::uint64_t allocs = countedAllocations() - allocs0;
    const std::uint64_t injected = w.app->injected() - injected0;
    gen.stop();

    ASSERT_GT(injected, 2500u);
    const double per_request =
        static_cast<double>(allocs) / static_cast<double>(injected);
    std::printf("%llu allocations for %llu requests: %.2f per request\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(injected), per_request);
    EXPECT_LE(per_request, kBudget);
}

/** One event bounced between two shards: every hop is one round. */
struct PingPong
{
    static constexpr Tick kLookahead = 10;

    ParallelSimulator par{{2, kLookahead, 1}};
    std::array<SimContext, 2> ctx{par.context(0), par.context(1)};
    std::uint64_t hops = 0;

    void
    bounce(unsigned shard)
    {
        ++hops;
        const unsigned peer = 1 - shard;
        ctx[shard].postToShard(peer, kLookahead,
                               [this, peer]() { bounce(peer); });
    }
};

TEST(AllocBudgetTest, CrossShardMailAllocatesNothingAfterWarmUp)
{
    PingPong p;
    p.ctx[0].schedule(0, [&p]() { p.bounce(0); });
    p.par.runUntil(1000); // mailboxes and the event pools grow here

    const std::uint64_t hops0 = p.hops;
    const std::uint64_t allocs0 = countedAllocations();
    p.par.runUntil(31000);
    const std::uint64_t allocs = countedAllocations() - allocs0;

    ASSERT_GE(p.hops - hops0, 3000u);
    EXPECT_EQ(allocs, 0u);
}

} // namespace
} // namespace uqsim
