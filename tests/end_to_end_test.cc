/**
 * @file
 * Integration tests across the full stack: queueing-theory sanity,
 * tracing consistency on the large graphs, slow-server tail-at-scale
 * properties and cross-module flows.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/catalog.hh"
#include "apps/social_network.hh"
#include "trace/analysis.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

using apps::AppId;
using apps::World;
using apps::WorldConfig;

WorldConfig
cfg(unsigned servers = 5)
{
    WorldConfig c;
    c.workerServers = servers;
    return c;
}

TEST(IntegrationTest, LittlesLawOnSingleTier)
{
    // L = lambda * W must hold for a stable single-tier system:
    // measured via completions, mean latency, and thread occupancy
    // integrated over time (we check the arrival-rate * wait form).
    WorldConfig c = cfg(2);
    World w(c);
    service::ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::exponential(500.0 * 1440.0));
    front.threadsPerInstance = 64;
    w.app->addService(std::move(front)).addInstance(w.worker(0));
    w.app->setEntry("front");
    w.app->addQueryType({"q", 1, 1.0, 0, {}});
    w.app->validate();

    auto r = workload::runLoad(*w.app, 1000.0, kTicksPerSec,
                               5 * kTicksPerSec, workload::QueryMix({1.0}),
                               workload::UserPopulation::uniform(50), 3);
    // Mean in-flight = lambda * W; W ~ service latency at the tier.
    const auto summary =
        trace::TraceAnalysis(w.app->traceStore()).forService("front");
    const double lambda = r.achievedQps;                 // per second
    const double wait_sec = summary.meanLatencyUs / 1e6; // seconds
    const double in_flight = lambda * wait_sec;
    // Utilization law cross-check: in-flight threads ~ busy time rate.
    const double busy = static_cast<double>(
                            w.app->service("front")
                                .instances()[0]
                                ->cpuBusyTime()) /
                        static_cast<double>(5 * kTicksPerSec);
    EXPECT_NEAR(in_flight, busy, 0.35 * in_flight);
}

TEST(IntegrationTest, TraceTreeMatchesGraphReachability)
{
    World w(cfg());
    apps::buildSocialNetwork(w);
    workload::runLoad(*w.app, 100.0, kTicksPerSec, 2 * kTicksPerSec,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(100), 5);
    // Every span's service must exist, and every parent-child pair must
    // correspond to an edge of the dependency graph (or client->entry).
    const auto &store = w.app->traceStore();
    // Copies: the store returns spans by value.
    std::map<trace::SpanId, trace::Span> by_id;
    for (const trace::Span s : store.spans())
        by_id[s.spanId] = s;
    unsigned checked = 0;
    const trace::ServiceId client_id = store.serviceId("client");
    for (const auto &s : store.spans()) {
        if (s.service == client_id)
            continue;
        const std::string &svc = store.serviceName(s.service);
        ASSERT_TRUE(w.app->hasService(svc)) << svc;
        auto parent = by_id.find(s.parentSpanId);
        if (parent == by_id.end())
            continue; // parent span sampled out
        if (parent->second.service == client_id) {
            EXPECT_EQ(svc, w.app->entry());
            continue;
        }
        const std::string &parent_svc =
            store.serviceName(parent->second.service);
        const auto targets =
            w.app->service(parent_svc).def().handler.callTargets();
        EXPECT_NE(std::find(targets.begin(), targets.end(), svc),
                  targets.end())
            << parent_svc << " -> " << svc;
        ++checked;
    }
    EXPECT_GT(checked, 100u);
}

TEST(IntegrationTest, SlowServerDegradesMicroservicesMore)
{
    // Fig 22c mechanism: one slow server hurts the microservices
    // deployment (every request touches many servers) much more than
    // the monolith (only requests landing on the slow instance).
    auto goodputFrac = [](bool monolith, bool inject_slow) {
        World w(cfg(10));
        apps::AppOptions opt;
        opt.instancesPerTier = 2;
        if (monolith)
            apps::buildSocialNetworkMonolith(w, opt);
        else
            apps::buildSocialNetwork(w, opt);
        // Balanced provisioning + a drastically slow back-end server,
        // as in bench_fig22_tail_at_scale panel (c).
        apps::throttleLogicTiers(*w.app, 24, 8);
        w.app->setQosLatency(60 * kTicksPerMs);
        if (inject_slow)
            w.cluster.server(2).setSlowFactor(300.0);
        auto r = workload::runLoad(
            *w.app, 1200.0, kTicksPerSec, 2 * kTicksPerSec,
            workload::QueryMix::fromApp(*w.app),
            workload::UserPopulation::uniform(500), 7);
        return r.goodputQps / std::max(1.0, r.achievedQps);
    };
    const double micro_healthy = goodputFrac(false, false);
    const double micro_slow = goodputFrac(false, true);
    const double mono_healthy = goodputFrac(true, false);
    const double mono_slow = goodputFrac(true, true);
    const double micro_loss = micro_healthy - micro_slow;
    const double mono_loss = mono_healthy - mono_slow;
    EXPECT_GT(micro_loss, mono_loss);
    EXPECT_GT(micro_loss, 0.2); // the slow server really hurts micro
}

TEST(IntegrationTest, SkewCollapsesGoodput)
{
    // Fig 22b mechanism: skewed users concentrate on single stateful
    // shards. Provision the stateful tiers tightly (Sec 3.8) so a hot
    // shard can actually become the bottleneck, and use a small user
    // population as in the paper's deployment (hundreds of users).
    auto goodput = [](double skew) {
        World w(cfg(5));
        apps::AppOptions opt;
        opt.cacheShards = 4;
        opt.dbShards = 4;
        apps::buildSocialNetwork(w, opt);
        apps::tightenStatefulTiers(*w.app, 11.0, 2, 8.0, 4);
        auto r = workload::runLoad(
            *w.app, 4000.0, kTicksPerSec, 2 * kTicksPerSec,
            workload::QueryMix::fromApp(*w.app),
            workload::UserPopulation::skewed(100, skew), 9);
        return r.goodputQps;
    };
    const double uniform = goodput(0.0);
    const double skewed = goodput(99.0);
    EXPECT_LT(skewed, 0.75 * uniform);
}

TEST(IntegrationTest, FpgaImprovesEndToEndTail)
{
    auto p99At = [](bool fpga) {
        WorldConfig c = cfg();
        if (fpga)
            c.appConfig.fpga = net::FpgaOffloadModel::on();
        World w(c);
        apps::buildSocialNetwork(w);
        auto r = workload::runLoad(
            *w.app, 300.0, kTicksPerSec, 3 * kTicksPerSec,
            workload::QueryMix::fromApp(*w.app),
            workload::UserPopulation::uniform(500), 11);
        return r;
    };
    const auto native = p99At(false);
    const auto offload = p99At(true);
    // Fig 16: end-to-end improves by 43% up to 2.2x.
    EXPECT_LT(offload.p50, native.p50);
    EXPECT_LT(offload.networkShare, native.networkShare);
}

TEST(IntegrationTest, EveryAppTracesConsistently)
{
    for (AppId id : apps::allApps()) {
        World w(cfg());
        apps::buildApp(w, id);
        const bool swarm =
            id == AppId::SwarmCloud || id == AppId::SwarmEdge;
        workload::runLoad(*w.app, swarm ? 3.0 : 80.0, kTicksPerSec,
                          2 * kTicksPerSec,
                          workload::QueryMix::fromApp(*w.app),
                          workload::UserPopulation::uniform(100), 13);
        const auto &store = w.app->traceStore();
        ASSERT_GT(store.size(), 0u) << apps::appName(id);
        for (const auto &s : store.spans()) {
            EXPECT_GE(s.end, s.start);
            EXPECT_LE(s.queueTime, s.duration());
        }
    }
}

TEST(IntegrationTest, DrainedRunHoldsNoRequestState)
{
    // Every handler context and request must die with the last
    // continuation that refers to it. One held by a reference cycle
    // (a call chain owning itself) outlives the drain and leaks.
    World w(cfg());
    apps::buildSocialNetwork(w);
    workload::runLoad(*w.app, 100.0, kTicksPerSec / 2, kTicksPerSec,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(100), 17);
    w.ctx.run(); // drain every pending event
    EXPECT_GT(w.app->completed(), 50u);
    EXPECT_EQ(w.app->liveHandlerContexts(), 0);
    EXPECT_EQ(w.app->liveRequests(), 0);
    EXPECT_EQ(w.app->framesInUse(), 0);
}

TEST(IntegrationTest, DrainedRunWithRetriesHoldsNoRequestState)
{
    // The same invariant on the retry/timeout path: every attempt has a
    // timeout event that is cancelled when the reply wins, attempts on
    // a slowed server time out, and their calls retry. A cancelled
    // timeout whose closure owns the attempt must not keep it alive.
    World w(cfg());
    apps::buildSocialNetwork(w);
    for (service::Microservice *svc : w.app->services()) {
        rpc::ResiliencePolicy &pol = svc->mutableDef().resilience;
        pol.timeout = 5 * kTicksPerMs;
        pol.retry.maxAttempts = 3;
    }
    w.cluster.injectSlowServers(1, 10.0);
    workload::runLoad(*w.app, 100.0, kTicksPerSec / 2, kTicksPerSec,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(100), 17);
    w.ctx.run(); // drain every pending event
    EXPECT_GT(w.app->completed(), 50u);
    EXPECT_GT(w.app->metrics().counter("rpc.timeouts").value(), 0u);
    EXPECT_GT(w.app->metrics().counter("rpc.retries").value(), 0u);
    EXPECT_EQ(w.app->liveHandlerContexts(), 0);
    EXPECT_EQ(w.app->liveRequests(), 0);
    EXPECT_EQ(w.app->framesInUse(), 0);
}

} // namespace
} // namespace uqsim
