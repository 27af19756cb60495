/**
 * @file
 * Tests of the replicated keyed-data tier: the ReplicaSet state
 * machine in isolation (quorum write delays, elections, partitions,
 * read preferences, log-replay trims) and the replication layer inside
 * full application models (the opt-in digest pin, seed determinism and
 * thread-count invariance of replicated runs, warm failover beating
 * the PR-5 cold restart, typed QuorumLost rejects instead of hangs,
 * and 2PC transaction aborts that stay retryable).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "obs/pipeline.hh"
#include "replica/replication.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

using replica::ReadPreference;
using replica::ReplicaSet;
using replica::ReplicationConfig;
using replica::RouteDecision;
using replica::Verdict;

ReplicationConfig
baseConfig(unsigned factor = 3, unsigned quorum = 0)
{
    ReplicationConfig cfg;
    cfg.factor = factor;
    cfg.writeQuorum = quorum;
    cfg.applyLag = 1 * kTicksPerMs;
    cfg.electionTimeout = 50 * kTicksPerMs;
    cfg.catchUp = 100 * kTicksPerMs;
    return cfg;
}

// -- ReplicaSet state machine -------------------------------------------

TEST(ReplicaSetTest, SuccessorGroupsAndQuorumClamp)
{
    ReplicaSet rs(baseConfig(3), 5);
    EXPECT_EQ(rs.groups(), 5u);
    EXPECT_EQ(rs.replicas(), 3u);
    EXPECT_EQ(rs.quorum(), 2u); // majority of 3
    EXPECT_EQ(rs.memberAt(0, 0), 0u);
    EXPECT_EQ(rs.memberAt(0, 2), 2u);
    EXPECT_EQ(rs.memberAt(4, 1), 0u); // wraps the ring

    // Fewer instances than the factor: N and the quorum clamp down.
    ReplicaSet small(baseConfig(3), 2);
    EXPECT_EQ(small.replicas(), 2u);
    EXPECT_EQ(small.quorum(), 2u);
}

TEST(ReplicaSetTest, QuorumWriteDelayIsTheWthFastestAck)
{
    // Follower p lags by p * applyLag, so the (W-1)-th smallest
    // eligible-follower lag is the deterministic quorum delay.
    const Tick lag = baseConfig().applyLag;
    {
        ReplicaSet rs(baseConfig(3, 2), 3);
        const RouteDecision d = rs.route(0, 7, true, 0);
        EXPECT_EQ(d.verdict, Verdict::Ok);
        EXPECT_EQ(d.instance, 0u);
        EXPECT_EQ(d.quorumDelay, lag); // leader + follower 1
    }
    {
        ReplicaSet rs(baseConfig(3, 3), 3);
        const RouteDecision d = rs.route(0, 7, true, 0);
        EXPECT_EQ(d.quorumDelay, 2 * lag); // must wait for follower 2
    }
    {
        ReplicaSet rs(baseConfig(3, 1), 3);
        const RouteDecision d = rs.route(0, 7, true, 0);
        EXPECT_EQ(d.quorumDelay, 0u); // leader-only ack
    }
}

TEST(ReplicaSetTest, DownFollowerRaisesTheQuorumDelay)
{
    // With the fast follower down, the ack set falls back to the
    // slower one; a restart only helps after catch-up completes.
    const ReplicationConfig cfg = baseConfig(3, 2);
    ReplicaSet rs(cfg, 3);
    rs.onInstanceDown(1, 0);
    EXPECT_EQ(rs.route(0, 7, true, 0).quorumDelay, 2 * cfg.applyLag);

    const Tick up = 10 * kTicksPerMs;
    rs.onInstanceUp(1, up);
    EXPECT_EQ(rs.route(0, 7, true, up + 1).quorumDelay,
              2 * cfg.applyLag)
        << "a replaying member must not count toward the quorum";
    const Tick caught = up + cfg.catchUp;
    EXPECT_EQ(rs.route(0, 7, true, caught).quorumDelay, cfg.applyLag);
}

TEST(ReplicaSetTest, LeaderCrashPromotesMostCaughtUpFollower)
{
    const ReplicationConfig cfg = baseConfig(3, 2);
    ReplicaSet rs(cfg, 3);
    const Tick t0 = 10 * kTicksPerMs;
    rs.onInstanceDown(0, t0);

    // Mid-election: typed reject, never a hang.
    EXPECT_EQ(rs.route(0, 7, true, t0 + 1).verdict,
              Verdict::QuorumLost);
    EXPECT_EQ(rs.leaderOf(0, t0 + 1), -1);

    // The election completes lazily at the timeout; position 1 is the
    // most caught-up survivor and must win.
    const Tick te = t0 + cfg.electionTimeout;
    EXPECT_EQ(rs.leaderOf(0, te), 1);
    EXPECT_EQ(rs.termOf(0), 2u);
    ASSERT_EQ(rs.history(0).size(), 2u);
    EXPECT_EQ(rs.history(0)[0].leader, 0u);
    EXPECT_EQ(rs.history(0)[1].leader, 1u);

    // Log-replay trim: the promoted member trails the deposed leader
    // by one hop of apply lag, so exactly that tail leaves the store.
    const replica::Maintenance m = rs.poll(0, te);
    EXPECT_TRUE(m.trim);
    EXPECT_EQ(m.trimCutoff, t0 - cfg.applyLag);
    EXPECT_FALSE(rs.poll(0, te).trim) << "maintenance must be one-shot";
    EXPECT_GE(rs.counts().failovers, 1u);
    EXPECT_GE(rs.counts().trims, 1u);
}

TEST(ReplicaSetTest, PartitionNeverElectsTwoLeadersPerTerm)
{
    const ReplicationConfig cfg = baseConfig(3, 2);
    ReplicaSet rs(cfg, 3);

    // Cut instance 0 (the leader of group 0) away from {1, 2}.
    rs.setSevered([](unsigned a, unsigned b) {
        return (a == 0) != (b == 0);
    });
    const Tick t0 = 10 * kTicksPerMs;
    rs.onTopologyChange(t0);
    EXPECT_EQ(rs.leaderOf(0, t0), -1) << "cut-off leader must step down";

    // Only the majority side can crown a successor.
    const Tick te = t0 + cfg.electionTimeout;
    EXPECT_EQ(rs.leaderOf(0, te), 1);
    const auto &hist = rs.history(0);
    for (std::size_t i = 1; i < hist.size(); ++i)
        EXPECT_GT(hist[i].term, hist[i - 1].term)
            << "terms must be strictly increasing";

    // A full mesh cut leaves every component below quorum: no leader,
    // typed rejects, and the heal ends the outage.
    rs.setSevered([](unsigned a, unsigned b) { return a != b; });
    rs.onTopologyChange(te);
    const Tick t1 = te + cfg.electionTimeout;
    EXPECT_EQ(rs.leaderOf(0, t1), -1);
    EXPECT_EQ(rs.route(0, 7, true, t1).verdict, Verdict::QuorumLost);
    rs.setSevered(nullptr);
    EXPECT_NE(rs.leaderOf(0, t1 + 1), -1);
}

TEST(ReplicaSetTest, NearestReadsAreDeterministicAndStaleOffLeader)
{
    ReplicationConfig cfg = baseConfig(3, 2);
    cfg.readPreference = ReadPreference::Nearest;
    ReplicaSet rs(cfg, 3);

    unsigned stale = 0;
    for (std::uint64_t key = 0; key < 64; ++key) {
        const RouteDecision a = rs.route(0, key, false, 0);
        const RouteDecision b = rs.route(0, key, false, 0);
        EXPECT_EQ(a.instance, b.instance) << "pick must be sticky";
        EXPECT_EQ(a.verdict, Verdict::Ok);
        EXPECT_EQ(a.stale, a.instance != 0u);
        stale += a.stale;
    }
    EXPECT_GT(stale, 0u) << "nearest never left the leader";
    EXPECT_LT(stale, 64u) << "nearest never picked the leader";
    EXPECT_EQ(rs.counts().staleReads, 2u * stale);
}

TEST(ReplicaSetTest, ReadYourWritesRedirectsUntilTheLagClears)
{
    ReplicationConfig cfg = baseConfig(3, 2);
    cfg.readPreference = ReadPreference::ReadYourWrites;
    ReplicaSet rs(cfg, 3);

    const Tick tw = 10 * kTicksPerMs;
    rs.recordWrite(0, tw);

    unsigned redirected = 0;
    for (std::uint64_t key = 0; key < 64; ++key) {
        const RouteDecision d = rs.route(0, key, false, tw + 1);
        if (d.redirected) {
            EXPECT_EQ(d.instance, 0u) << "redirect must hit the leader";
            ++redirected;
        }
    }
    EXPECT_GT(redirected, 0u);

    // Once the slowest follower has applied the write, freshness is
    // free everywhere and no read needs the leader.
    const Tick clear = tw + cfg.applyLag * 2;
    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_FALSE(rs.route(0, key, false, clear).redirected);
}

TEST(ReplicaSetTest, ReadYourWritesRejectsFreshReadsMidElection)
{
    ReplicationConfig cfg = baseConfig(3, 2);
    cfg.readPreference = ReadPreference::ReadYourWrites;
    ReplicaSet rs(cfg, 3);

    const Tick tw = 10 * kTicksPerMs;
    rs.recordWrite(0, tw);
    rs.onInstanceDown(0, tw + 1);

    // A recent write with no leader: freshness is unsatisfiable, so
    // the verdict is a typed StaleRead (retryable), not a hang.
    const RouteDecision d = rs.route(0, 7, false, tw + 2);
    EXPECT_EQ(d.verdict, Verdict::StaleRead);
    EXPECT_GE(rs.counts().staleRejects, 1u);
}

TEST(ReplicaSetTest, WholeGroupDeathLosesTheStore)
{
    // factor 2 over 2 instances with W=1 so a lone survivor can lead.
    ReplicaSet rs(baseConfig(2, 1), 2);
    rs.onInstanceDown(0, 0);
    rs.onInstanceDown(1, 0);
    EXPECT_TRUE(rs.dead(0));
    EXPECT_TRUE(rs.dead(1));
    EXPECT_EQ(rs.route(0, 7, true, 1).verdict, Verdict::Unreachable);
    EXPECT_EQ(rs.counts().storeLosses, 2u);

    // First member back revives the group around an empty store.
    const Tick up = 10 * kTicksPerMs;
    rs.onInstanceUp(0, up);
    EXPECT_FALSE(rs.dead(0));
    const Tick ready = up + rs.config().catchUp +
                       rs.config().electionTimeout;
    EXPECT_EQ(rs.leaderOf(0, ready), 0);
    EXPECT_TRUE(rs.poll(0, ready).clearStore);
}

TEST(ReplicaSetTest, StalenessBoundTracksLagAndElections)
{
    const ReplicationConfig cfg = baseConfig(3, 2);
    ReplicaSet rs(cfg, 3);
    // Healthy: the slowest follower's lag.
    EXPECT_EQ(rs.stalenessBound(0, 0), 2 * cfg.applyLag);
    EXPECT_EQ(rs.maxStalenessBound(0), 2 * cfg.applyLag);

    // Leaderless: the election gap grows with wall time.
    const Tick t0 = 10 * kTicksPerMs;
    rs.onInstanceDown(0, t0);
    EXPECT_EQ(rs.stalenessBound(0, t0 + 5), 5u);
}

TEST(ReplicaSetTest, UncountedResolutionLeavesTheCountsAlone)
{
    ReplicationConfig cfg = baseConfig(3, 2);
    cfg.readPreference = ReadPreference::Nearest;
    ReplicaSet rs(cfg, 3);
    (void)rs.route(0, 1, false, 0, /*count=*/false);
    rs.onInstanceDown(0, 0);
    (void)rs.route(0, 1, true, 1, /*count=*/false);
    EXPECT_EQ(rs.counts().staleReads, 0u);
    EXPECT_EQ(rs.counts().quorumLostWrites, 0u);
}

// -- Full-model integration ---------------------------------------------

struct RunOutcome
{
    std::uint64_t digest = 0;
    std::uint64_t completed = 0;
    std::uint64_t counter(const std::string &name) const
    {
        std::uint64_t v = 0;
        for (const auto &m : perShard)
            v += m.count(name) ? m.at(name) : 0;
        return v;
    }
    std::vector<std::map<std::string, std::uint64_t>> perShard;
};

RunOutcome
runScenario(const apps::Scenario &scn, Tick warmup, Tick measure,
            const std::vector<std::string> &counters)
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
    out.perShard.resize(scn.shards);
    for (unsigned s = 0; s < scn.shards; ++s) {
        MetricsRegistry &m = w.shard(s).app->metrics();
        for (const std::string &name : counters)
            out.perShard[s][name] = m.counter(name).value();
    }
    return out;
}

apps::Scenario
replicatedScenario()
{
    apps::Scenario scn;
    scn.qps = 200.0;
    scn.dataKeys = 20000;
    scn.dataCapacity = 512;
    scn.replicaFactor = 2;
    scn.replicaQuorum = 1; // a lone survivor can still lead
    return scn;
}

TEST(ReplicationIntegrationTest, DisabledKeepsTheLegacyDigest)
{
    // All defaults: replication off. The digest is pinned to the
    // pre-replication value, so any event-stream perturbation by the
    // (disabled) replica path is a loud failure.
    const apps::Scenario scn;
    const RunOutcome r =
        runScenario(scn, secToTicks(scn.warmupSec),
                    secToTicks(scn.durationSec), {});
    EXPECT_EQ(r.digest, 0x3e4c3130724e0248ull);
    EXPECT_EQ(r.completed, 3039u);
}

TEST(ReplicationIntegrationTest, ReplicatedRunsAreSeedDeterministic)
{
    apps::Scenario scn = replicatedScenario();
    const std::vector<std::string> names = {
        "rpc.quorum_lost", "replica.posts-memcached.stale_reads"};
    const RunOutcome a =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec, names);
    const RunOutcome b =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec, names);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.counter("replica.posts-memcached.stale_reads"),
              b.counter("replica.posts-memcached.stale_reads"));

    scn.seed = 43;
    const RunOutcome c =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec, names);
    EXPECT_NE(c.digest, a.digest);
}

TEST(ReplicationIntegrationTest, ReplicatedDigestIsThreadCountInvariant)
{
    apps::Scenario scn = replicatedScenario();
    scn.shards = 2;
    scn.replicaRead = "nearest";

    scn.threads = 1;
    const RunOutcome one =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec, {});
    scn.threads = 4;
    const RunOutcome four =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec, {});
    EXPECT_EQ(one.digest, four.digest);
}

TEST(ReplicationIntegrationTest, ReadPreferencesDriveTheTypedCounters)
{
    // Nearest serves stale reads; read-your-writes redirects the
    // fresh ones to the leader instead.
    apps::Scenario scn = replicatedScenario();
    scn.replicaRead = "nearest";
    scn.replicaApplyLag = 5 * kTicksPerMs;
    const RunOutcome near = runScenario(
        scn, kTicksPerSec / 2, 2 * kTicksPerSec,
        {"replica.posts-memcached.stale_reads",
         "replica.posts-memcached.ryw_redirects"});
    EXPECT_GT(near.counter("replica.posts-memcached.stale_reads"), 0u);
    EXPECT_EQ(near.counter("replica.posts-memcached.ryw_redirects"),
              0u);

    scn.replicaRead = "ryw";
    const RunOutcome ryw = runScenario(
        scn, kTicksPerSec / 2, 2 * kTicksPerSec,
        {"replica.posts-memcached.ryw_redirects"});
    EXPECT_GT(ryw.counter("replica.posts-memcached.ryw_redirects"), 0u);
}

/** One leader-crash run: the cache tier's series plus the outcome. */
struct CrashRun
{
    std::map<std::string, std::uint64_t> counters;
    data::CacheStats stats;
    /** posts-memcached interval samples, oldest first. */
    std::vector<obs::IntervalSample> cacheSeries;
    std::uint64_t completed = 0;
};

CrashRun
runLeaderCrash(bool replicated, fault::CrashRole role)
{
    apps::Scenario scn;
    scn.qps = 300.0;
    scn.dataKeys = 5000;
    scn.dataCapacity = 2048;
    if (replicated) {
        scn.replicaFactor = 2;
        scn.replicaQuorum = 1;
    }

    apps::WorldHandle w(apps::worldConfigFor(scn), 1, 1);
    apps::buildScenarioApp(w.shard(0), scn);
    service::App &app = *w.shard(0).app;

    fault::FaultInjector inj(app, scn.seed);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.service = "posts-memcached";
    crash.instance = 0; // group 0 when a role is set
    crash.role = role;
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
    const auto r = apps::runWorld(w, load);

    CrashRun out;
    out.completed = r.completed;
    out.stats = app.service("posts-memcached").dataStats();
    const obs::Series &cache = *pipe.store().find("posts-memcached");
    for (std::size_t i = 0; i < cache.size(); ++i)
        out.cacheSeries.push_back(cache.at(i));
    for (const char *name :
         {"replica.posts-memcached.failovers",
          "replica.posts-memcached.log_trims",
          "replica.posts-memcached.elections",
          "replica.posts-memcached.quorum_lost", "rpc.quorum_lost"}) {
        if (replicated)
            out.counters[name] = app.metrics().counter(name).value();
    }
    return out;
}

double
phaseHitRatio(const CrashRun &run, Tick from, Tick to)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const obs::IntervalSample &s : run.cacheSeries) {
        if (s.end <= from || s.end > to || s.cacheLookups == 0)
            continue;
        sum += s.hitRatio;
        ++n;
    }
    EXPECT_GT(n, 0u) << "no samples in [" << from << ", " << to << "]";
    return n ? sum / n : 0.0;
}

TEST(ReplicationIntegrationTest, WarmFailoverBeatsTheColdRestart)
{
    // The same leader crash, replicated vs not. The unreplicated tier
    // loses shard 0 outright (PR-5 behaviour: unreachable, then a cold
    // restart); the replicated tier promotes the warm follower after
    // one election timeout, so its outage-window hit ratio stays near
    // the healthy level and no cold restart ever happens.
    const CrashRun cold =
        runLeaderCrash(false, fault::CrashRole::None);
    const CrashRun warm =
        runLeaderCrash(true, fault::CrashRole::Leader);

    EXPECT_GE(cold.stats.coldRestarts, 1u);
    EXPECT_EQ(warm.stats.coldRestarts, 0u)
        << "failover must inherit the store, not clear it";
    EXPECT_GE(warm.counters.at("replica.posts-memcached.failovers"),
              1u);
    EXPECT_GE(warm.counters.at("replica.posts-memcached.log_trims"),
              1u);

    const Tick lo = 3 * kTicksPerSec + kTicksPerSec / 4;
    const Tick hi = 4 * kTicksPerSec;
    const double cold_outage = phaseHitRatio(cold, lo, hi);
    const double warm_outage = phaseHitRatio(warm, lo, hi);
    EXPECT_GT(warm_outage, cold_outage + 0.1)
        << "replication bought no availability during the outage";
}

TEST(ReplicationIntegrationTest, QuorumLossRejectsTypedAndNeverHangs)
{
    // factor 2 with the default majority quorum (2): a leader crash
    // leaves one survivor, below quorum, so group 0 serves typed
    // QuorumLost rejects until the restart — and the run completing at
    // all is the no-hang proof. Retries ride the normal budget.
    apps::Scenario scn = replicatedScenario();
    scn.replicaQuorum = 0; // majority of 2 = 2
    scn.retries = 2;
    scn.replicaElectionTimeout = 200 * kTicksPerMs;

    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.service = "posts-memcached";
    crash.instance = 0;
    crash.role = fault::CrashRole::Leader;
    crash.start = 1 * kTicksPerSec;
    crash.duration = kTicksPerSec;

    apps::WorldHandle w(apps::worldConfigFor(scn), 1, 1);
    apps::buildScenarioApp(w.shard(0), scn);
    service::App &app = *w.shard(0).app;
    fault::FaultInjector inj(app, scn.seed);
    inj.add(crash);
    inj.arm();

    apps::LoadSpec load;
    load.qps = scn.qps;
    load.measure = 4 * kTicksPerSec;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, load);

    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(app.metrics().counter("rpc.quorum_lost").value(), 0u);
    EXPECT_GT(app.metrics()
                  .counter("replica.posts-memcached.quorum_lost")
                  .value(),
              0u);
    // Each rejected access may be re-resolved by retries, so the
    // rpc-level count dominates the per-access tier count.
    EXPECT_GE(app.metrics().counter("rpc.quorum_lost").value(),
              app.metrics()
                  .counter("replica.posts-memcached.quorum_lost")
                  .value());
}

TEST(ReplicationIntegrationTest, TxnCommitsAndRetryableAborts)
{
    // 2PC across groups: healthy traffic commits; a leader crash makes
    // prepares fail on group 0 so transactions abort with the typed
    // TxnAborted status (retryable), and the run still completes.
    apps::Scenario scn = replicatedScenario();
    scn.txnKeys = 2;
    scn.retries = 1;
    scn.replicaElectionTimeout = 200 * kTicksPerMs;

    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.service = "posts-memcached";
    crash.instance = 0;
    crash.role = fault::CrashRole::Leader;
    crash.start = 1 * kTicksPerSec;
    crash.duration = kTicksPerSec;

    apps::WorldHandle w(apps::worldConfigFor(scn), 1, 1);
    apps::buildScenarioApp(w.shard(0), scn);
    service::App &app = *w.shard(0).app;
    fault::FaultInjector inj(app, scn.seed);
    inj.add(crash);
    inj.arm();

    apps::LoadSpec load;
    load.qps = scn.qps;
    load.measure = 4 * kTicksPerSec;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, load);

    EXPECT_GT(r.completed, 0u);
    const std::uint64_t started =
        app.metrics().counter("rpc.txn_started").value();
    const std::uint64_t commits =
        app.metrics().counter("rpc.txn_commits").value();
    const std::uint64_t aborts =
        app.metrics().counter("rpc.txn_aborts").value();
    EXPECT_GT(started, 0u);
    EXPECT_GT(commits, 0u);
    EXPECT_GT(aborts, 0u);
    EXPECT_LE(commits + aborts, started);
}

} // namespace
} // namespace uqsim
