/**
 * @file
 * Heap-allocation budget of the request path.
 *
 * A separate executable, because it replaces the global operator new
 * with a counting one. It drives the 36-tier social network open-loop
 * at 3000 qps (0.5 s warm-up, then 1 s measured) and checks that the
 * measured second allocates at most kBudget times per injected
 * request. The request path runs on pooled request and call frames,
 * inline callbacks and pooled event nodes, so what is left is the
 * rare growth of a queue or a pool. A second case splits the same
 * graph over four shards on one thread, where every cross-shard leg
 * carries its closures inline, and holds it to kPartitionBudget. A
 * third adds uqbench social-keyed-rw's layers (keyed SLRU stores,
 * 3-way replicas, QoS classes) and holds it to kKeyedBudget: a cache
 * store only allocates while its slab and index grow. A fourth
 * bounces events between two shards and checks that, once the
 * outboxes and slot pools have grown, mail of every inline size and
 * same-shard posts allocate nothing. A fifth fills a span store: its
 * constructor allocates nothing, a full default ring its block table
 * and 16 blocks, and a wrap or a refill after clear() nothing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "apps/scenario.hh"
#include "apps/social_network.hh"
#include "core/parallel.hh"
#include "counting_new.hh"
#include "trace/collector.hh"
#include "workload/generators.hh"

namespace uqsim {
namespace {

/** Allocations allowed per injected request, measured steady state. */
constexpr double kBudget = 0.01;

/** The same for a 4-shard partitioned world, whose four shards' queues
 *  and pools are still growing now and then after the warm-up. */
constexpr double kPartitionBudget = 0.05;

/** The same with keyed cache stores, replicas and QoS, whose stores
 *  are still filling up to their capacity after the warm-up. */
constexpr double kKeyedBudget = 0.05;

/**
 * Run @p app's world for a 0.5 s warm-up, then one measured second:
 * @return allocations per request injected in that second.
 */
double
measuredAllocsPerRequest(service::App &app)
{
    app.ctx().runFor(kTicksPerSec / 2); // pools and queues grow here

    const std::uint64_t allocs0 = countedAllocations();
    const std::uint64_t injected0 = app.injected();
    app.ctx().runFor(kTicksPerSec);
    const std::uint64_t allocs = countedAllocations() - allocs0;
    const std::uint64_t injected = app.injected() - injected0;

    EXPECT_GT(injected, 2500u);
    const double per_request =
        static_cast<double>(allocs) / static_cast<double>(injected);
    std::printf("%llu allocations for %llu requests: %.4f per request\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(injected), per_request);
    return per_request;
}

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
    EXPECT_LE(measuredAllocsPerRequest(*w.app), kBudget);
    gen.stop();
}

TEST(AllocBudgetTest, PartitionedRequestPathStaysWithinBudget)
{
    // uqbench's partition-4 layout: every tier but the entry is homed
    // round-robin over 4 shards, and a 500 us wire is the lookahead.
    apps::Scenario scn;
    scn.shards = 4;
    apps::WorldConfig c = apps::worldConfigFor(scn);
    c.netConfig.wireLatency = 500 * kTicksPerUs;
    apps::WorldHandle h(c, scn.shards, /*threads=*/1,
                        apps::Deployment::Partition);
    for (unsigned s = 0; s < scn.shards; ++s)
        apps::buildScenarioApp(h.shard(s), scn);
    h.enablePartition({});
    service::App &app = *h.shard(0).app;
    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(1000), 43);
    gen.setQps(4000.0);
    gen.start();
    EXPECT_LE(measuredAllocsPerRequest(app), kPartitionBudget);
    gen.stop();
}

TEST(AllocBudgetTest, KeyedReplicatedRequestPathStaysWithinBudget)
{
    // uqbench's social-keyed-rw layers: 100k Zipf(1) keys on SLRU
    // stores with invalidating writes, 3-way replica groups read
    // read-your-writes, and QoS classes.
    apps::Scenario scn;
    scn.dataKeys = 100000;
    scn.dataPopularity = "zipf";
    scn.dataZipfS = 1.0;
    scn.dataPolicy = "slru";
    scn.dataWrite = "invalidate";
    scn.replicaFactor = 3;
    scn.replicaRead = "ryw";
    scn.qosEnabled = true;
    scn.qosBatch = "composePost-image,composePost-video";
    scn.qosBestEffort = "repost";
    apps::World w(apps::worldConfigFor(scn));
    apps::buildScenarioApp(w, scn);
    workload::OpenLoopGenerator gen(
        *w.app, workload::QueryMix::fromApp(*w.app),
        workload::UserPopulation::uniform(1000), 43);
    gen.setQps(3000.0);
    gen.start();
    EXPECT_LE(measuredAllocsPerRequest(*w.app), kKeyedBudget);
    gen.stop();
}

/**
 * Events bounced between two shards: every hop is one round. Each hop
 * posts a small closure and one larger than an EventCallback holds
 * (65 B up to the MailCallback capacity) to the peer, and one
 * same-shard post to itself.
 */
struct PingPong
{
    static constexpr Tick kLookahead = 10;

    ParallelSimulator par{{2, kLookahead, 1}};
    std::array<SimContext, 2> ctx{par.context(0), par.context(1)};
    std::uint64_t hops = 0;
    std::uint64_t large = 0;
    std::uint64_t local = 0;

    void
    bounce(unsigned shard)
    {
        ++hops;
        const unsigned peer = 1 - shard;
        ctx[shard].postToShard(peer, kLookahead,
                               [this, peer]() { bounce(peer); });
        std::array<std::uint64_t, 12> payload{};
        payload[0] = hops;
        auto big = [this, payload]() { large += payload[0] > 0; };
        static_assert(!EventCallback::fitsInline<decltype(big)>() &&
                      MailCallback::fitsInline<decltype(big)>());
        ctx[shard].postToShard(peer, kLookahead, std::move(big));
        ctx[shard].postToShard(shard, 1, [this]() { ++local; });
    }
};

TEST(AllocBudgetTest, CrossShardMailAllocatesNothingAfterWarmUp)
{
    PingPong p;
    p.ctx[0].schedule(0, [&p]() { p.bounce(0); });
    p.par.runUntil(1000); // outboxes, slots and event pools grow here

    const std::uint64_t hops0 = p.hops;
    const std::uint64_t large0 = p.large;
    const std::uint64_t local0 = p.local;
    const std::uint64_t allocs0 = countedAllocations();
    p.par.runUntil(31000);
    const std::uint64_t allocs = countedAllocations() - allocs0;

    ASSERT_GE(p.hops - hops0, 3000u);
    EXPECT_GE(p.large - large0, 3000u);
    EXPECT_GE(p.local - local0, 3000u);
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudgetTest, SpanStoreAllocatesItsBlocksOnce)
{
    const std::uint64_t allocs0 = countedAllocations();
    trace::TraceStore store;
    EXPECT_EQ(countedAllocations(), allocs0);

    trace::Span sp;
    sp.end = 10;
    const auto fill = [&store, &sp](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            ++sp.spanId;
            store.insert(sp);
        }
    };
    fill(trace::TraceStore::kDefaultCapacity);
    EXPECT_EQ(countedAllocations() - allocs0, 17u); // table + 16 blocks

    const std::uint64_t allocs1 = countedAllocations();
    fill(1000); // wraps
    store.clear();
    fill(trace::TraceStore::kDefaultCapacity);
    EXPECT_EQ(countedAllocations(), allocs1);
    EXPECT_EQ(store.size(), trace::TraceStore::kDefaultCapacity);
}

} // namespace
} // namespace uqsim
