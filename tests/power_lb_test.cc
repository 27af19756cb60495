/**
 * @file
 * Tests for the power/energy model and the join-shortest-queue load
 * balancing policy (extension features; see DESIGN.md ablations).
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "cpu/power.hh"
#include "service/app.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

apps::WorldConfig
cfg(unsigned servers = 3)
{
    apps::WorldConfig c;
    c.workerServers = servers;
    return c;
}

TEST(PowerModelTest, IdleAtZeroUtilization)
{
    cpu::PowerModel m = cpu::PowerModel::xeon();
    EXPECT_NEAR(m.watts(0.0, 2400.0, 2400.0), m.idleWatts, 1e-9);
}

TEST(PowerModelTest, PeakAtFullUtilizationNominalFrequency)
{
    cpu::PowerModel m = cpu::PowerModel::xeon();
    EXPECT_NEAR(m.watts(1.0, 2400.0, 2400.0), m.peakWatts, 1e-9);
}

TEST(PowerModelTest, CubicFrequencyScaling)
{
    cpu::PowerModel m = cpu::PowerModel::xeon();
    const double full = m.watts(1.0, 2400.0, 2400.0) - m.idleWatts;
    const double half = m.watts(1.0, 1200.0, 2400.0) - m.idleWatts;
    EXPECT_NEAR(half, full / 8.0, 1e-9);
}

TEST(EnergyMeterTest, IdleClusterBurnsIdlePower)
{
    apps::World w(cfg(2));
    cpu::EnergyMeter meter(w.ctx, w.cluster, cpu::PowerModel::xeon(),
                           100 * kTicksPerMs);
    meter.start();
    w.ctx.runFor(10 * kTicksPerSec);
    // 3 servers (2 workers + client) x 120W x 10s = 3600 J.
    EXPECT_NEAR(meter.totalJoules(), 3600.0, 40.0);
    EXPECT_NEAR(meter.averageWatts(), 360.0, 5.0);
}

TEST(EnergyMeterTest, LoadIncreasesEnergy)
{
    auto measure = [&](double qps) {
        apps::World w(cfg(2));
        service::ServiceDef fe;
        fe.name = "fe";
        fe.kind = service::ServiceKind::Frontend;
        fe.handler.compute(Dist::exponential(3000.0 * 1440.0));
        fe.threadsPerInstance = 64;
        w.app->addService(std::move(fe)).addInstance(w.worker(0));
        w.app->setEntry("fe");
        w.app->addQueryType({"q", 1, 1.0, 0, {}});
        w.app->validate();
        cpu::EnergyMeter meter(w.ctx, w.cluster,
                               cpu::PowerModel::xeon());
        meter.start();
        workload::runLoad(*w.app, qps, kTicksPerSec, 3 * kTicksPerSec,
                          workload::QueryMix({1.0}),
                          workload::UserPopulation::uniform(10), 3);
        return meter.totalJoules();
    };
    EXPECT_GT(measure(4000.0), 1.02 * measure(100.0));
}

TEST(EnergyMeterTest, ResetClearsIntegration)
{
    apps::World w(cfg(2));
    cpu::EnergyMeter meter(w.ctx, w.cluster, cpu::PowerModel::xeon());
    meter.start();
    w.ctx.runFor(kTicksPerSec);
    EXPECT_GT(meter.totalJoules(), 0.0);
    meter.reset();
    EXPECT_EQ(meter.totalJoules(), 0.0);
}

TEST(LbPolicyTest, JsqPrefersIdleInstance)
{
    apps::World w(cfg(3));
    service::App &app = *w.app;
    service::ServiceDef def;
    def.name = "svc";
    def.lbPolicy = service::LbPolicy::JoinShortestQueue;
    def.handler.compute(Dist::constant(1000.0));
    def.threadsPerInstance = 4;
    service::Microservice &tier = app.addService(std::move(def));
    tier.addInstance(w.worker(0));
    tier.addInstance(w.worker(1));

    service::Request req;
    // With no load JSQ picks deterministically the first instance;
    // consecutive *selections* without dispatch stay there.
    EXPECT_EQ(tier.selectInstance(req).index(), 0u);
    EXPECT_EQ(tier.selectInstance(req).index(), 0u);
}

TEST(LbPolicyTest, JsqRoutesAroundSlowInstance)
{
    // One instance on a drastically slow server: JSQ steers traffic
    // away once its queue builds, RR keeps feeding it.
    auto goodput = [&](service::LbPolicy policy) {
        apps::World w(cfg(3));
        service::App &app = *w.app;
        service::ServiceDef def;
        def.name = "fe";
        def.kind = service::ServiceKind::Frontend;
        def.lbPolicy = policy;
        def.handler.compute(Dist::exponential(800.0 * 1440.0));
        def.threadsPerInstance = 4;
        service::Microservice &tier = app.addService(std::move(def));
        tier.addInstance(w.worker(0));
        tier.addInstance(w.worker(1));
        tier.addInstance(w.worker(2));
        app.setEntry("fe");
        app.addQueryType({"q", 1, 1.0, 0, {}});
        app.setQosLatency(10 * kTicksPerMs);
        app.validate();
        w.cluster.server(0).setSlowFactor(50.0);
        auto r = workload::runLoad(
            app, 3000.0, kTicksPerSec, 2 * kTicksPerSec,
            workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(50), 3);
        return r.goodputQps;
    };
    EXPECT_GT(goodput(service::LbPolicy::JoinShortestQueue),
              1.3 * goodput(service::LbPolicy::RoundRobin));
}

} // namespace
} // namespace uqsim
