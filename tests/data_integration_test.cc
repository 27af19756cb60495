/**
 * @file
 * Integration tests of the keyed data tier inside full application
 * models: the opt-in contract (no keyspace => the PR-4 execution
 * digest, bit for bit), seed determinism of keyed runs at any thread
 * count, emergent skew effects on the hit ratio, and the post-crash
 * cold-cache recovery arc (hit-ratio dip during the outage, warm-up
 * climb after the restart).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "obs/pipeline.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

struct RunOutcome
{
    std::uint64_t digest = 0;
    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

RunOutcome
runScenario(const apps::Scenario &scn, Tick warmup, Tick measure)
{
    apps::WorldHandle w(apps::worldConfigFor(scn), scn.shards,
                        scn.threads);
    for (unsigned s = 0; s < scn.shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    apps::LoadSpec load;
    load.qps = scn.qps;
    load.warmup = warmup;
    load.measure = measure;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, load);
    RunOutcome out;
    out.digest = w.engine().executionDigest();
    out.completed = r.completed;
    for (unsigned s = 0; s < scn.shards; ++s) {
        MetricsRegistry &m = w.shard(s).app->metrics();
        out.hits += m.counter("data.posts-memcached.hits").value();
        out.misses += m.counter("data.posts-memcached.misses").value();
    }
    return out;
}

TEST(DataIntegrationTest, NoKeyspaceKeepsTheLegacyDigest)
{
    // The exact run `uqsim_run --app social-network --shards 1`
    // performs; the digest is pinned to the pre-data-tier value, so
    // any perturbation of the event stream by the (disabled) keyed
    // path is a test failure, not a silent behaviour change.
    const apps::Scenario scn; // all defaults; dataKeys == 0
    const RunOutcome r = runScenario(scn, secToTicks(scn.warmupSec),
                                     secToTicks(scn.durationSec));
    EXPECT_EQ(r.digest, 0x3e4c3130724e0248ull);
    EXPECT_EQ(r.completed, 3039u);
    EXPECT_EQ(r.hits + r.misses, 0u); // no keyed lookups happened
}

TEST(DataIntegrationTest, KeyedRunsAreSeedDeterministic)
{
    apps::Scenario scn;
    scn.qps = 200.0;
    scn.dataKeys = 20000;
    scn.dataCapacity = 512;

    const RunOutcome a =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    const RunOutcome b =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_GT(a.hits + a.misses, 0u) << "keyed path never exercised";

    scn.seed = 43;
    const RunOutcome c =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_NE(c.digest, a.digest);
}

TEST(DataIntegrationTest, KeyedDigestIsThreadCountInvariant)
{
    apps::Scenario scn;
    scn.qps = 200.0;
    scn.shards = 2;
    scn.dataKeys = 20000;
    scn.dataCapacity = 512;

    scn.threads = 1;
    const RunOutcome one =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    scn.threads = 4;
    const RunOutcome four =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(one.digest, four.digest);
    EXPECT_EQ(one.hits, four.hits);
    EXPECT_EQ(one.misses, four.misses);
}

TEST(DataIntegrationTest, SkewRaisesTheEmergentHitRatio)
{
    // With the store much smaller than the key universe, a heavier
    // Zipf tail concentrates accesses on fewer keys and the hit ratio
    // must rise — emergent, not configured.
    auto hitRatioAt = [](double s) {
        apps::Scenario scn;
        scn.qps = 200.0;
        scn.dataKeys = 50000;
        scn.dataCapacity = 256;
        scn.dataZipfS = s;
        const RunOutcome r =
            runScenario(scn, kTicksPerSec, 3 * kTicksPerSec);
        const std::uint64_t n = r.hits + r.misses;
        EXPECT_GT(n, 0u);
        return static_cast<double>(r.hits) / static_cast<double>(n);
    };
    const double low = hitRatioAt(0.6);
    const double high = hitRatioAt(1.3);
    EXPECT_GT(high, low + 0.1)
        << "zipf 1.3 should clearly out-hit zipf 0.6";
}

TEST(DataIntegrationTest, CrashColdCacheDipsAndRecovers)
{
    // Crash one posts-memcached shard for 1s mid-run. While it is
    // down its keys are unreachable (counted as misses); when it
    // restarts it is cold and must re-learn the hot set, so the
    // tier's interval hit ratio dips and then climbs back.
    apps::Scenario scn;
    scn.qps = 300.0;
    scn.dataKeys = 5000;
    scn.dataCapacity = 2048;

    apps::WorldHandle w(apps::worldConfigFor(scn), 1, 1);
    apps::buildScenarioApp(w.shard(0), scn);
    service::App &app = *w.shard(0).app;

    fault::FaultInjector inj(app, scn.seed);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.service = "posts-memcached";
    crash.instance = 0;
    crash.start = 3 * kTicksPerSec;
    crash.duration = kTicksPerSec;
    inj.add(crash);
    inj.arm();

    obs::PipelineConfig pc;
    pc.interval = kTicksPerSec / 4;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    apps::LoadSpec load;
    load.qps = scn.qps;
    load.measure = 9 * kTicksPerSec;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    apps::runWorld(w, load);

    // The restart wiped the shard's store.
    const data::CacheStats st =
        app.service("posts-memcached").dataStats();
    EXPECT_GE(st.coldRestarts, 1u);

    // Mean interval hit ratio per phase of the run.
    const obs::Series &series = *pipe.store().find("posts-memcached");
    auto phaseMean = [&](Tick from, Tick to) {
        double sum = 0.0;
        unsigned n = 0;
        for (std::size_t i = 0; i < series.size(); ++i) {
            const obs::IntervalSample &s = series.at(i);
            if (s.end <= from || s.end > to || s.cacheLookups == 0)
                continue;
            sum += s.hitRatio;
            ++n;
        }
        EXPECT_GT(n, 0u) << "no samples in [" << from << ", " << to
                         << "]";
        return n ? sum / n : 0.0;
    };
    const double before = phaseMean(kTicksPerSec, 3 * kTicksPerSec);
    const double outage =
        phaseMean(3 * kTicksPerSec + kTicksPerSec / 4,
                  4 * kTicksPerSec);
    const double recovered = phaseMean(7 * kTicksPerSec,
                                       9 * kTicksPerSec);

    EXPECT_LT(outage, before - 0.1)
        << "no hit-ratio dip while the shard was down";
    EXPECT_GT(recovered, outage + 0.1)
        << "hit ratio never climbed back after the cold restart";
}

} // namespace
} // namespace uqsim
