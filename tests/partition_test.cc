/**
 * @file
 * Partitioned deployments: one application graph split across shards.
 *
 * The contract under test, in order of strictness:
 *  - placement "none" keeps the classic replica-worlds digest
 *    bit-for-bit (the pinned default-scenario digest);
 *  - a one-shard partition reproduces the standalone World digest;
 *  - at any fixed shard count a partitioned run is thread-count
 *    invariant and seed-deterministic;
 *  - tier pins reroute work without losing requests;
 *  - the bounded-lookahead engine path (lookahead = wire latency)
 *    still reproduces M/M/k queueing against the Erlang-C closed form
 *    when arrivals cross shards to a pinned station.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "apps/social_network.hh"
#include "core/rng.hh"
#include "data/placement.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

/** The default-scenario execution digest pinned by older releases. */
constexpr std::uint64_t kDefaultDigest = 0x3e4c3130724e0248ull;

struct PartitionRun
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
};

/** Build + drive one partitioned social network, runWorld-style. */
PartitionRun
runPartitioned(unsigned shards, unsigned threads, std::uint64_t seed,
               double qps,
               const std::vector<data::PlacementPin> &pins = {},
               Tick measure = 3 * kTicksPerSec / 10)
{
    apps::Scenario scn;
    scn.seed = seed;
    scn.shards = shards;
    scn.threads = threads;
    apps::WorldHandle w(apps::worldConfigFor(scn), shards, threads,
                        apps::Deployment::Partition);
    for (unsigned s = 0; s < shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    w.enablePartition(pins);
    apps::LoadSpec spec;
    spec.qps = qps;
    spec.warmup = measure / 3;
    spec.measure = measure;
    spec.users = workload::UserPopulation::uniform(100);
    spec.seed = seed;
    const auto r = apps::runWorld(w, spec);
    PartitionRun out;
    out.digest = w.engine().executionDigest();
    out.events = w.engine().eventsExecuted();
    out.completed = r.completed;
    out.dropped = r.dropped;
    return out;
}

// -- placement assignment -----------------------------------------------

TEST(PlacementTest, EntryHomesOnShardZeroOthersRoundRobin)
{
    std::map<std::string, unsigned> homes;
    std::string error;
    ASSERT_TRUE(data::assignPlacement({"lb", "logic", "cache", "db"},
                                      "lb", 2, {}, homes, error))
        << error;
    EXPECT_EQ(homes.at("lb"), 0u);
    // Unpinned non-entry tiers alternate in insertion order.
    EXPECT_EQ(homes.at("logic"), 0u);
    EXPECT_EQ(homes.at("cache"), 1u);
    EXPECT_EQ(homes.at("db"), 0u);
}

TEST(PlacementTest, PinsOverrideRoundRobin)
{
    std::map<std::string, unsigned> homes;
    std::string error;
    ASSERT_TRUE(data::assignPlacement({"lb", "logic", "cache"}, "lb", 4,
                                      {{"cache", 3}, {"lb", 1}}, homes,
                                      error))
        << error;
    EXPECT_EQ(homes.at("cache"), 3u);
    EXPECT_EQ(homes.at("lb"), 1u);
}

TEST(PlacementTest, RejectsUnknownTierOutOfRangeAndDuplicate)
{
    std::map<std::string, unsigned> homes;
    std::string error;
    EXPECT_FALSE(data::assignPlacement({"lb"}, "lb", 2, {{"nosuch", 0}},
                                       homes, error));
    EXPECT_NE(error.find("unknown tier 'nosuch'"), std::string::npos);
    EXPECT_FALSE(data::assignPlacement({"lb"}, "lb", 2, {{"lb", 2}},
                                       homes, error));
    EXPECT_NE(error.find("only 2 shards exist"), std::string::npos);
    EXPECT_FALSE(data::assignPlacement({"lb"}, "lb", 2,
                                       {{"lb", 0}, {"lb", 1}}, homes,
                                       error));
    EXPECT_NE(error.find("duplicate placement pin"), std::string::npos);
}

// -- digest contracts ---------------------------------------------------

TEST(PartitionTest, PlacementNoneKeepsPinnedDefaultDigest)
{
    // The full default scenario (qps 300, 10s window, 2s warmup, seed
    // 42) driven exactly as uqsim_run drives it with --placement none.
    apps::Scenario scn;
    apps::WorldHandle w(apps::worldConfigFor(scn), scn.shards,
                        scn.threads);
    apps::buildScenarioApp(w.shard(0), scn);
    apps::LoadSpec spec;
    spec.qps = scn.qps;
    spec.warmup = secToTicks(scn.warmupSec);
    spec.measure = secToTicks(scn.durationSec);
    spec.users = workload::UserPopulation::uniform(scn.users);
    spec.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, spec);
    EXPECT_EQ(w.engine().executionDigest(), kDefaultDigest);
    EXPECT_EQ(r.completed, 3039u);
}

TEST(PartitionTest, OneShardPartitionMatchesStandaloneWorld)
{
    apps::WorldConfig c;
    c.seed = 42;
    apps::World standalone(c);
    apps::buildSocialNetwork(standalone);
    workload::runLoad(*standalone.app, 200.0, kTicksPerSec / 10,
                      3 * kTicksPerSec / 10,
                      workload::QueryMix::fromApp(*standalone.app),
                      workload::UserPopulation::uniform(100), 42);

    const PartitionRun part = runPartitioned(1, 1, 42, 200.0);
    EXPECT_EQ(part.digest, standalone.ctx.executionDigest());
    EXPECT_EQ(part.events, standalone.ctx.eventsExecuted());
}

TEST(PartitionTest, ThreadCountInvariantAtFixedShards)
{
    for (unsigned shards : {2u, 4u}) {
        const PartitionRun one = runPartitioned(shards, 1, 42, 200.0);
        const PartitionRun four = runPartitioned(shards, 4, 42, 200.0);
        EXPECT_GT(one.completed, 0u) << "shards=" << shards;
        EXPECT_EQ(one.digest, four.digest) << "shards=" << shards;
        EXPECT_EQ(one.events, four.events) << "shards=" << shards;
        EXPECT_EQ(one.completed, four.completed)
            << "shards=" << shards;
    }
}

TEST(PartitionTest, SeedDeterministicAndSeedSensitive)
{
    const PartitionRun a = runPartitioned(2, 2, 42, 200.0);
    const PartitionRun b = runPartitioned(2, 2, 42, 200.0);
    const PartitionRun c = runPartitioned(2, 2, 43, 200.0);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_NE(a.digest, c.digest);
}

TEST(PartitionTest, PartitionLosesNoTraffic)
{
    // Splitting the graph adds cross-shard latency but must not lose
    // or duplicate requests: the same arrival schedule completes.
    const PartitionRun solo = runPartitioned(1, 1, 42, 200.0);
    const PartitionRun split = runPartitioned(4, 1, 42, 200.0);
    EXPECT_EQ(split.completed, solo.completed);
    EXPECT_EQ(split.dropped, solo.dropped);
}

TEST(PartitionTest, PinsRerouteDeterministically)
{
    const std::vector<data::PlacementPin> pins = {
        {"posts-memcached", 1}, {"posts-db", 1}};
    const PartitionRun def = runPartitioned(2, 1, 42, 200.0);
    const PartitionRun pinned = runPartitioned(2, 1, 42, 200.0, pins);
    const PartitionRun again = runPartitioned(2, 2, 42, 200.0, pins);
    EXPECT_NE(pinned.digest, def.digest);
    EXPECT_EQ(pinned.digest, again.digest);
    EXPECT_EQ(pinned.completed, def.completed);
}

TEST(PartitionTest, PartitionShardsShareTheBaseSeed)
{
    apps::Scenario scn;
    scn.seed = 77;
    apps::WorldHandle part(apps::worldConfigFor(scn), 3, 1,
                           apps::Deployment::Partition);
    apps::WorldHandle repl(apps::worldConfigFor(scn), 3, 1,
                           apps::Deployment::Replicate);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(part.shard(s).config().seed, 77u);
        EXPECT_EQ(repl.shard(s).config().seed,
                  apps::WorldHandle::shardSeed(77, s));
    }
    EXPECT_EQ(part.deployment(), apps::Deployment::Partition);
    EXPECT_EQ(repl.deployment(), apps::Deployment::Replicate);
}

// -- M/M/k across a pinned cross-shard hop ------------------------------

/** Erlang-C: probability an arrival must wait in an M/M/k queue. */
double
erlangC(unsigned k, double offered)
{
    double invSum = 0.0, term = 1.0;
    for (unsigned i = 0; i < k; ++i) {
        invSum += term;
        term *= offered / static_cast<double>(i + 1);
    }
    const double last = term * static_cast<double>(k) /
                        (static_cast<double>(k) - offered);
    return last / (invSum + last);
}

/**
 * An M/M/k FCFS station living on one shard, fed by offer() calls
 * posted from another: the minimal model of a tier pinned away from
 * its callers. Sojourn is measured from station arrival, so the
 * constant forwarding delay cancels out of the Erlang-C comparison.
 */
class PinnedStation
{
  public:
    PinnedStation(SimContext ctx, std::uint64_t seed,
                  double mean_service, unsigned k)
        : ctx_(ctx), rng_(seed), meanService_(mean_service), k_(k)
    {}

    void
    offer()
    {
        if (busy_ < k_) {
            ++busy_;
            startService(ctx_.now());
        } else {
            waiting_.push_back(ctx_.now());
        }
    }

    std::uint64_t completed() const { return completed_; }

    double
    meanSojournTicks() const
    {
        return sumSojourn_ / static_cast<double>(completed_);
    }

  private:
    void
    startService(Tick arrived)
    {
        ctx_.schedule(
            static_cast<Tick>(rng_.exponential(meanService_)) + 1,
            [this, arrived]() {
                ++completed_;
                sumSojourn_ += static_cast<double>(ctx_.now() - arrived);
                if (!waiting_.empty()) {
                    const Tick next = waiting_.front();
                    waiting_.pop_front();
                    startService(next);
                } else {
                    --busy_;
                }
            });
    }

    SimContext ctx_;
    Rng rng_;
    double meanService_;
    unsigned k_;
    std::deque<Tick> waiting_;
    unsigned busy_ = 0;
    std::uint64_t completed_ = 0;
    double sumSojourn_ = 0.0;
};

TEST(PartitionTest, MmkAcrossPinnedShardMatchesErlangC)
{
    constexpr double kMeanServiceTicks = 100.0 * kTicksPerUs;
    constexpr double kRho = 0.7;
    constexpr unsigned kServers = 4;
    constexpr std::uint64_t kJobs = 60000;
    constexpr Tick kLookahead = 10 * kTicksPerUs; // the wire latency

    auto run = [&](unsigned threads) {
        ParallelSimulator par({2, kLookahead, threads});
        PinnedStation station(par.context(1), 9001, kMeanServiceTicks,
                              kServers);
        // Poisson arrivals on shard 0, each forwarded to the pinned
        // station with exactly the conservative lookahead — the
        // minimum legal cross-shard delay, and the worst case for the
        // engine's barrier logic.
        struct Source
        {
            SimContext ctx;
            Rng rng;
            double meanInterarrival;
            std::uint64_t remaining;
            PinnedStation *station;
            void
            arrive()
            {
                if (remaining == 0)
                    return;
                --remaining;
                ctx.postToShard(1, kLookahead,
                                [st = station]() { st->offer(); });
                ctx.schedule(
                    static_cast<Tick>(
                        rng.exponential(meanInterarrival)) +
                        1,
                    [this]() { arrive(); });
            }
        };
        Source src{par.context(0), Rng(9000),
                   kMeanServiceTicks / (kRho * kServers), kJobs,
                   &station};
        par.context(0).schedule(0, [&src]() { src.arrive(); });
        par.run();
        EXPECT_EQ(station.completed(), kJobs);
        return std::pair<double, std::uint64_t>(
            station.meanSojournTicks(), par.executionDigest());
    };

    const auto one = run(1);
    const auto two = run(2);
    EXPECT_EQ(one.second, two.second); // thread-invariant digest

    const double a = kRho * kServers;
    const double mu = 1.0 / kMeanServiceTicks;
    const double lambda = a * mu;
    const double expected =
        erlangC(kServers, a) / (kServers * mu - lambda) +
        kMeanServiceTicks;
    EXPECT_NEAR(one.first, expected, 0.05 * expected);
}

} // namespace
} // namespace uqsim
