/**
 * @file
 * Tests for the cluster-management autoscaler.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/builder.hh"
#include "manager/autoscaler.hh"
#include "workload/generators.hh"

namespace uqsim::manager {
namespace {

apps::WorldConfig
smallConfig()
{
    apps::WorldConfig c;
    c.workerServers = 4;
    return c;
}

void
buildOneTier(apps::World &w, double work_us, unsigned threads)
{
    service::ServiceDef front;
    front.name = "front";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::exponential(work_us * 1440.0));
    front.threadsPerInstance = threads;
    w.app->addService(std::move(front)).addInstance(w.worker(0));
    w.app->setEntry("front");
    w.app->addQueryType({"q", 1, 1.0, 0, {}});
    w.app->setQosLatency(5 * kTicksPerMs);
    w.app->validate();
}

TEST(AutoScalerTest, ScalesOutUnderSaturation)
{
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 4); // 4 threads: saturates quickly
    AutoScaler::Config cfg;
    cfg.threshold = 0.7;
    cfg.interval = 200 * kTicksPerMs;
    cfg.startupDelay = 300 * kTicksPerMs;
    cfg.cooldown = 500 * kTicksPerMs;
    AutoScaler scaler(*w.app, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();

    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(6000.0);
    gen.start();
    w.ctx.runFor(5 * kTicksPerSec);
    EXPECT_GT(scaler.events().size(), 0u);
    EXPECT_GT(w.app->service("front").instances().size(), 1u);
    // New instances eventually become active.
    EXPECT_GT(w.app->service("front").activeInstances(), 1u);
}

TEST(AutoScalerTest, NoScalingWhenIdle)
{
    apps::World w(smallConfig());
    buildOneTier(w, 200.0, 16);
    AutoScaler scaler(*w.app, AutoScaler::Config{},
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();
    w.ctx.runFor(3 * kTicksPerSec);
    EXPECT_EQ(scaler.events().size(), 0u);
}

TEST(AutoScalerTest, CooldownLimitsRate)
{
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 2);
    AutoScaler::Config cfg;
    cfg.threshold = 0.5;
    cfg.interval = 100 * kTicksPerMs;
    cfg.cooldown = 2 * kTicksPerSec;
    cfg.startupDelay = 10 * kTicksPerSec; // never activates in test
    AutoScaler scaler(*w.app, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    scaler.start();
    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(8000.0);
    gen.start();
    w.ctx.runFor(4 * kTicksPerSec);
    EXPECT_LE(scaler.events().size(), 2u); // 4s / 2s cooldown
}

TEST(AutoScalerTest, ScaleBudgetLimitsPerRound)
{
    // Two saturated tiers, budget of one scale-out per round: the
    // scaler must alternate instead of upsizing both at once.
    apps::World w(smallConfig());
    service::App &app = *w.app;
    for (const char *name : {"a", "b"}) {
        service::ServiceDef def;
        def.name = name;
        def.handler.compute(Dist::exponential(500.0 * 1440.0));
        def.threadsPerInstance = 2;
        app.addService(std::move(def)).addInstance(w.worker(0));
    }
    service::ServiceDef fe;
    fe.name = "fe";
    fe.kind = service::ServiceKind::Frontend;
    fe.handler.call("a").call("b");
    fe.threadsPerInstance = 64;
    app.addService(std::move(fe)).addInstance(w.worker(1));
    app.setEntry("fe");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();

    AutoScaler::Config cfg;
    cfg.threshold = 0.5;
    cfg.interval = 100 * kTicksPerMs;
    cfg.cooldown = 100 * kTicksPerMs;
    cfg.startupDelay = 10 * kTicksPerSec; // stay saturated in-test
    cfg.maxScaleOutsPerRound = 1;
    AutoScaler scaler(*w.app, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("a");
    scaler.watch("b");
    scaler.start();

    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(8000.0);
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    // >= 2 rounds happened; with budget 1 no two events share a tick.
    const auto &events = scaler.events();
    ASSERT_GE(events.size(), 2u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].time, events[i - 1].time);
}

TEST(AutoScalerTest, DecisionsReadTheCurrentOccupancy)
{
    // The scaler starts from an event scheduled before the load, so
    // its decisions run after every other event queued for their tick
    // at start-up. Each one must still act on the occupancy at its own
    // tick, which the clock observer records between events.
    apps::World w(smallConfig());
    buildOneTier(w, 500.0, 4); // ~8k/s capacity, loaded to ~75% below
    AutoScaler::Config cfg;
    cfg.threshold = 0.5;
    cfg.interval = 100 * kTicksPerMs;
    cfg.cooldown = 300 * kTicksPerMs;
    cfg.startupDelay = 10 * kTicksPerSec; // no activation mid-test
    AutoScaler scaler(*w.app, cfg,
                      [&]() -> cpu::Server & { return w.nextWorker(); });
    scaler.watch("front");
    const service::Microservice &front = w.app->service("front");
    std::map<Tick, double> occupancy;
    w.ctx.addClockObserver(cfg.interval, [&](Tick boundary) {
        occupancy[boundary] = front.meanOccupancy();
    });
    w.ctx.schedule(200 * kTicksPerMs, [&scaler] { scaler.start(); });

    workload::OpenLoopGenerator gen(*w.app, workload::QueryMix({1.0}),
                                    workload::UserPopulation::uniform(10),
                                    3);
    gen.setQps(6000.0);
    gen.start();
    w.ctx.runFor(3 * kTicksPerSec);

    ASSERT_GE(scaler.events().size(), 3u);
    for (const ScaleEvent &e : scaler.events()) {
        ASSERT_TRUE(occupancy.count(e.time)) << "t=" << e.time;
        EXPECT_DOUBLE_EQ(e.signalValue, occupancy.at(e.time))
            << "t=" << e.time;
    }
}

} // namespace
} // namespace uqsim::manager
