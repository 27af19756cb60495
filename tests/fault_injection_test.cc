/**
 * @file
 * Tests for the fault-injection and provisioning levers the
 * tail-at-scale experiments rely on: routing misconfiguration,
 * provisioning helpers, and the TCP-processing accounting used by the
 * FPGA study.
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "apps/social_network.hh"
#include "service/app.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

apps::WorldConfig
cfg(unsigned servers = 4)
{
    apps::WorldConfig c;
    c.workerServers = servers;
    return c;
}

TEST(RouteMisconfigTest, FunnelsAllTrafficToFirstInstance)
{
    apps::World w(cfg());
    service::App &app = *w.app;
    service::ServiceDef svc;
    svc.name = "svc";
    svc.handler.compute(Dist::constant(1000.0));
    service::Microservice &tier = app.addService(std::move(svc));
    tier.addInstance(w.worker(0));
    tier.addInstance(w.worker(1));
    tier.addInstance(w.worker(2));

    service::Request req;
    tier.setRouteMisconfigured(true);
    EXPECT_TRUE(tier.routeMisconfigured());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(tier.selectInstance(req).index(), 0u);

    tier.setRouteMisconfigured(false);
    std::set<unsigned> seen;
    for (int i = 0; i < 6; ++i)
        seen.insert(tier.selectInstance(req).index());
    EXPECT_EQ(seen.size(), 3u); // back to round-robin
}

TEST(RouteMisconfigTest, OverloadsSingleInstanceUnderLoad)
{
    apps::World w(cfg());
    service::App &app = *w.app;
    service::ServiceDef svc;
    svc.name = "svc";
    svc.kind = service::ServiceKind::Frontend;
    svc.handler.compute(Dist::exponential(800.0 * 1440.0));
    svc.threadsPerInstance = 2;
    service::Microservice &tier = app.addService(std::move(svc));
    for (int i = 0; i < 3; ++i)
        tier.addInstance(w.worker(i));
    app.setEntry("svc");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.setQosLatency(10 * kTicksPerMs);
    app.validate();

    auto healthy = workload::runLoad(
        app, 4000.0, kTicksPerSec, 2 * kTicksPerSec,
        workload::QueryMix({1.0}), workload::UserPopulation::uniform(50),
        3);
    EXPECT_LT(healthy.p99, 10 * kTicksPerMs);

    tier.setRouteMisconfigured(true);
    auto broken = workload::runLoad(
        app, 4000.0, kTicksPerSec, 2 * kTicksPerSec,
        workload::QueryMix({1.0}), workload::UserPopulation::uniform(50),
        3);
    // One instance takes 3x its capacity: the tail explodes.
    EXPECT_GT(broken.p99, 4 * healthy.p99);
}

TEST(ProvisioningTest, ThrottleLogicTiersSetsThreads)
{
    apps::World w(cfg(5));
    apps::buildSocialNetwork(w);
    apps::throttleLogicTiers(*w.app, 24, 3);
    for (const auto *svc : w.app->services()) {
        switch (svc->def().kind) {
          case service::ServiceKind::Frontend:
            EXPECT_EQ(svc->def().threadsPerInstance, 24u) << svc->name();
            break;
          case service::ServiceKind::Stateless:
            EXPECT_EQ(svc->def().threadsPerInstance, 3u) << svc->name();
            break;
          default:
            EXPECT_NE(svc->def().threadsPerInstance, 3u) << svc->name();
            break;
        }
    }
}

TEST(ProvisioningTest, TightenStatefulTiersScalesCostAndThreads)
{
    apps::World w(cfg(5));
    apps::buildSocialNetwork(w);
    // Sample a cache tier's compute before/after.
    Rng probe(5);
    auto &cache = w.app->service("posts-memcached");
    const double before =
        cache.def().handler.stages[0].computeCycles.mean();
    apps::tightenStatefulTiers(*w.app, 10.0, 2, 8.0, 4);
    const double after =
        cache.def().handler.stages[0].computeCycles.mean();
    EXPECT_NEAR(after, 10.0 * before, 1e-6 * after);
    EXPECT_EQ(cache.def().threadsPerInstance, 2u);
    EXPECT_EQ(w.app->service("posts-db").def().threadsPerInstance, 4u);
    // Stateless tiers untouched.
    EXPECT_NE(w.app->service("composePost").def().threadsPerInstance, 2u);
    (void)probe;
}

TEST(TcpAccountingTest, TcpProcTimeIsPartOfNetworkTime)
{
    apps::World w(cfg(3));
    service::App &app = *w.app;
    service::ServiceDef leaf;
    leaf.name = "leaf";
    leaf.handler.compute(Dist::constant(50000.0));
    app.addService(std::move(leaf)).addInstance(w.worker(1));
    service::ServiceDef fe;
    fe.name = "fe";
    fe.kind = service::ServiceKind::Frontend;
    fe.handler.compute(Dist::constant(50000.0)).call("leaf");
    app.addService(std::move(fe)).addInstance(w.worker(0));
    app.setEntry("fe");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();

    service::Request out;
    app.inject(0, 1, [&](const service::Request &r) { out = r; });
    w.ctx.run();
    EXPECT_GT(out.tcpProcTime, 0u);
    EXPECT_LE(out.tcpProcTime, out.networkTime);
}

TEST(TcpAccountingTest, FpgaShrinksTcpTimeSpecifically)
{
    auto measure = [&](bool fpga) {
        apps::WorldConfig c = cfg(3);
        if (fpga)
            c.appConfig.fpga = net::FpgaOffloadModel::on();
        apps::World w(c);
        service::App &app = *w.app;
        service::ServiceDef fe;
        fe.name = "fe";
        fe.kind = service::ServiceKind::Frontend;
        fe.handler.compute(Dist::constant(50000.0));
        app.addService(std::move(fe)).addInstance(w.worker(0));
        app.setEntry("fe");
        app.addQueryType({"q", 1, 1.0, 0, {}});
        app.validate();
        service::Request out;
        app.inject(0, 1, [&](const service::Request &r) { out = r; });
        w.ctx.run();
        return out;
    };
    const auto native = measure(false);
    const auto offload = measure(true);
    // Fig 16's band: >=10x less TCP processing time.
    EXPECT_LT(offload.tcpProcTime * 10, native.tcpProcTime);
}

TEST(SlowServerTest, SlowFactorStretchesOnlyAffectedInstances)
{
    apps::World w(cfg(4));
    service::App &app = *w.app;
    service::ServiceDef fe;
    fe.name = "fe";
    fe.kind = service::ServiceKind::Frontend;
    fe.handler.compute(Dist::constant(1000000.0)); // ~0.7ms
    service::Microservice &tier = app.addService(std::move(fe));
    tier.addInstance(w.worker(0));
    tier.addInstance(w.worker(1));
    app.setEntry("fe");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();

    w.cluster.server(0).setSlowFactor(10.0);
    // Round-robin alternates between the slow and healthy instance.
    std::vector<Tick> latencies;
    for (int i = 0; i < 8; ++i) {
        app.inject(0, 1, [&](const service::Request &r) {
            latencies.push_back(r.latency());
        });
        w.ctx.run();
    }
    ASSERT_EQ(latencies.size(), 8u);
    std::sort(latencies.begin(), latencies.end());
    // Half the requests are ~10x slower than the other half.
    EXPECT_GT(latencies.back(), 5 * latencies.front());
}

} // namespace
} // namespace uqsim
