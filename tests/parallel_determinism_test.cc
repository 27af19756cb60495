/**
 * @file
 * Determinism of the sharded engine under full application models.
 *
 * Extends tests/determinism_test.cc to WorldHandle: at any fixed
 * shard count the composed execution digest must be identical for
 * --threads 1 and --threads 4 (determinism by construction, not by
 * accident of scheduling), a one-shard WorldHandle must reproduce the
 * standalone World digest bit-for-bit, and the M/M/k statistical
 * validation must keep holding when the stations run as shards of a
 * parallel engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "apps/scenario.hh"
#include "apps/social_network.hh"
#include "core/rng.hh"
#include "core/simulator.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

struct ShardedRun
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
};

/** The determinism_test social-network workload, sharded. */
ShardedRun
runSharded(const std::string &app_name, unsigned shards,
           unsigned threads, std::uint64_t seed, double qps,
           Tick measure = 3 * kTicksPerSec / 10)
{
    apps::Scenario scn;
    scn.app = app_name;
    scn.seed = seed;
    scn.shards = shards;
    scn.threads = threads;
    if (app_name == "swarm-cloud")
        scn.drones = 8;
    apps::WorldHandle w(apps::worldConfigFor(scn), shards, threads);
    for (unsigned s = 0; s < shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    apps::LoadSpec load;
    load.qps = qps;
    load.warmup = measure / 3;
    load.measure = measure;
    load.users = workload::UserPopulation::uniform(100);
    load.seed = seed;
    const auto r = apps::runWorld(w, load);
    ShardedRun out;
    out.digest = w.engine().executionDigest();
    out.events = w.engine().eventsExecuted();
    out.completed = r.completed;
    return out;
}

TEST(ParallelDeterminismTest, SocialNetworkThreadCountInvariant)
{
    for (unsigned shards : {1u, 2u, 4u}) {
        const ShardedRun one =
            runSharded("social-network", shards, 1, 42, 200.0);
        const ShardedRun four =
            runSharded("social-network", shards, 4, 42, 200.0);
        EXPECT_GT(one.completed, 0u) << "shards=" << shards;
        EXPECT_EQ(one.digest, four.digest) << "shards=" << shards;
        EXPECT_EQ(one.events, four.events) << "shards=" << shards;
        EXPECT_EQ(one.completed, four.completed) << "shards=" << shards;
    }
}

TEST(ParallelDeterminismTest, OneShardMatchesStandaloneWorld)
{
    // A standalone World on its own one-shard engine, exactly as
    // determinism_test drives it.
    apps::WorldConfig c;
    c.workerServers = 5;
    c.seed = 42;
    apps::World standalone(c);
    apps::buildSocialNetwork(standalone);
    workload::runLoad(*standalone.app, 200.0, kTicksPerSec / 10,
                      3 * kTicksPerSec / 10,
                      workload::QueryMix::fromApp(*standalone.app),
                      workload::UserPopulation::uniform(100), 42);

    const ShardedRun sharded =
        runSharded("social-network", 1, 1, 42, 200.0);
    EXPECT_EQ(sharded.digest, standalone.ctx.executionDigest());
    EXPECT_EQ(sharded.events, standalone.ctx.eventsExecuted());
}

TEST(ParallelDeterminismTest, DifferentSeedsDifferentDigests)
{
    const ShardedRun a = runSharded("social-network", 2, 2, 42, 200.0);
    const ShardedRun b = runSharded("social-network", 2, 2, 43, 200.0);
    EXPECT_NE(a.digest, b.digest);
}

TEST(ParallelDeterminismTest, SwarmThreadCountInvariant)
{
    // Swarm requests take ~600ms end to end, so the window must be
    // seconds long for any to complete inside it.
    const ShardedRun one =
        runSharded("swarm-cloud", 2, 1, 7, 8.0, 2 * kTicksPerSec);
    const ShardedRun two =
        runSharded("swarm-cloud", 2, 4, 7, 8.0, 2 * kTicksPerSec);
    EXPECT_GT(one.completed, 0u);
    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.events, two.events);
}

// -- M/M/k stations as shards -------------------------------------------

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
 * An M/M/k FCFS station scheduling through a SimContext — the
 * queueing_theory_test station, shard-hostable. Queueing emerges from
 * event dynamics only.
 */
class MmkStation
{
  public:
    MmkStation(SimContext ctx, std::uint64_t seed, double mean_service,
               double rho, unsigned k, std::uint64_t jobs)
        : ctx_(ctx), rng_(seed), meanService_(mean_service), k_(k),
          jobs_(jobs),
          meanInterarrival_(mean_service /
                            (rho * static_cast<double>(k))),
          warmup_(jobs / 5), totalArrivals_(warmup_ + jobs + jobs / 5)
    {}

    void
    start()
    {
        ctx_.schedule(0, [this]() { arrive(); });
    }

    double
    meanSojournTicks() const
    {
        return sumSojourn_ / static_cast<double>(measured_);
    }

  private:
    void
    arrive()
    {
        if (arrivals_ >= totalArrivals_)
            return;
        ++arrivals_;
        ctx_.schedule(
            static_cast<Tick>(rng_.exponential(meanInterarrival_)) + 1,
            [this]() { arrive(); });
        if (busy_ < k_) {
            ++busy_;
            startService(ctx_.now());
        } else {
            waiting_.push_back(ctx_.now());
        }
    }

    void
    startService(Tick arrived)
    {
        ctx_.schedule(
            static_cast<Tick>(rng_.exponential(meanService_)) + 1,
            [this, arrived]() {
                ++completed_;
                if (completed_ > warmup_ && measured_ < jobs_) {
                    sumSojourn_ +=
                        static_cast<double>(ctx_.now() - arrived);
                    ++measured_;
                }
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
    std::uint64_t jobs_;
    double meanInterarrival_;
    std::uint64_t warmup_;
    std::uint64_t totalArrivals_;

    std::deque<Tick> waiting_;
    unsigned busy_ = 0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t measured_ = 0;
    double sumSojourn_ = 0.0;
};

TEST(ParallelDeterminismTest, MmkUnderFourShardsMatchesErlangC)
{
    constexpr double kMeanServiceTicks = 100.0 * kTicksPerUs;
    constexpr double kRho = 0.7;
    constexpr unsigned kServers = 4;
    constexpr std::uint64_t kJobs = 60000;
    constexpr unsigned kShards = 4;

    ParallelSimulator par({kShards, kMaxTick, kShards});
    std::vector<std::unique_ptr<MmkStation>> stations;
    for (unsigned s = 0; s < kShards; ++s) {
        stations.push_back(std::make_unique<MmkStation>(
            par.context(s), 9000 + s, kMeanServiceTicks, kRho, kServers,
            kJobs));
        stations.back()->start();
    }
    par.run();

    // Each shard must be bit-identical to the same station driven on a
    // plain Simulator with the same seed.
    for (unsigned s = 0; s < kShards; ++s) {
        Simulator sim;
        MmkStation ref(SimContext(sim), 9000 + s, kMeanServiceTicks,
                       kRho, kServers, kJobs);
        ref.start();
        sim.run();
        EXPECT_EQ(par.shardDigest(s), sim.executionDigest())
            << "shard " << s;
        EXPECT_NEAR(stations[s]->meanSojournTicks(),
                    ref.meanSojournTicks(), 1e-9);
    }

    // Aggregate sojourn across the four independent stations must
    // match the Erlang-C closed form within sampling tolerance.
    const double a = kRho * kServers;
    const double mu = 1.0 / kMeanServiceTicks;
    const double lambda = a * mu;
    const double expected =
        erlangC(kServers, a) / (kServers * mu - lambda) +
        kMeanServiceTicks;
    double mean = 0.0;
    for (const auto &st : stations)
        mean += st->meanSojournTicks() / kShards;
    EXPECT_NEAR(mean, expected, 0.05 * expected);
}

} // namespace
} // namespace uqsim
