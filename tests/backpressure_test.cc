/**
 * @file
 * Backpressure property tests (the Sec 6 mechanism): a slow callee
 * behind a blocking HTTP/1 pool parks the caller's worker threads, so
 * the caller looks saturated (high occupancy, long queues) while its
 * CPU idles - the signal combination that fools utilization-based
 * autoscalers in Fig 17B.
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "service/app.hh"
#include "workload/generators.hh"

namespace uqsim::service {
namespace {

struct TwoTier
{
    explicit TwoTier(bool blocking, double backend_us)
        : world(makeConfig())
    {
        App &app = *world.app;
        ServiceDef back;
        back.name = "memcached";
        back.handler.compute(
            Dist::constant(backend_us * 1440.0));
        back.threadsPerInstance = 8;
        back.protocol = blocking ? rpc::ProtocolModel::restHttp1()
                                 : rpc::ProtocolModel::thrift();
        back.protocol.connectionsPerPair = 4;
        app.addService(std::move(back)).addInstance(world.worker(1));

        ServiceDef front;
        front.name = "nginx";
        front.kind = ServiceKind::Frontend;
        front.handler.compute(Dist::constant(30000.0)).call("memcached");
        front.threadsPerInstance = 32;
        app.addService(std::move(front)).addInstance(world.worker(0));
        app.setEntry("nginx");
        app.addQueryType({"read", 1, 1.0, 0, {}});
        app.validate();
    }

    static apps::WorldConfig
    makeConfig()
    {
        apps::WorldConfig c;
        c.workerServers = 2;
        return c;
    }

    apps::World world;
};

TEST(BackpressureTest, SlowCalleeParksCallerThreads)
{
    // memcached "slightly degraded": ~3.6ms per op, 4 connections:
    // the pool's throughput ceiling is ~1.1k op/s, far below the
    // offered 2.5k QPS, so requests back up inside nginx.
    TwoTier t(/*blocking=*/true, /*backend_us=*/3000.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(2500.0);
    gen.start();
    t.world.ctx.runFor(2 * kTicksPerSec);

    Microservice &nginx = t.world.app->service("nginx");
    Microservice &mc = t.world.app->service("memcached");
    // nginx *appears* saturated: most worker threads occupied.
    EXPECT_GT(nginx.meanOccupancy(), 0.7);
    // ...but its CPU is nearly idle (it is just blocked).
    const double nginx_cpu =
        static_cast<double>(
            nginx.instances()[0]->cpuBusyTime()) /
        static_cast<double>(t.world.ctx.now());
    EXPECT_LT(nginx_cpu, 0.2 * nginx.def().threadsPerInstance);
    // memcached itself is NOT thread-saturated: the connection limit
    // throttles it below its own capacity.
    EXPECT_LT(mc.meanOccupancy(), 0.9);
}

TEST(BackpressureTest, NonBlockingProtocolAvoidsThreadParking)
{
    TwoTier blocking(true, 3000.0);
    TwoTier rpc(false, 3000.0);
    for (TwoTier *t : {&blocking, &rpc}) {
        workload::OpenLoopGenerator gen(
            *t->world.app, workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(100), 1);
        gen.setQps(2000.0);
        gen.start();
        t->world.ctx.runFor(2 * kTicksPerSec);
    }
    // With multiplexed RPC, nginx threads wait on actual service time
    // only; occupancy stays lower than in the blocked configuration.
    EXPECT_LT(rpc.world.app->service("nginx").meanOccupancy(),
              blocking.world.app->service("nginx").meanOccupancy());
}

TEST(BackpressureTest, HealthyBackendKeepsLatencyFlat)
{
    TwoTier t(true, /*backend_us=*/80.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(800.0);
    gen.start();
    t.world.ctx.runFor(2 * kTicksPerSec);
    EXPECT_LT(t.world.app->endToEndLatency().p99(), 2 * kTicksPerMs);
    EXPECT_LT(t.world.app->service("nginx").meanOccupancy(), 0.3);
}

TEST(BackpressureTest, PoolWaitersAccumulateUnderOverload)
{
    TwoTier t(true, 3000.0);
    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 1);
    gen.setQps(3000.0);
    gen.start();
    t.world.ctx.runFor(kTicksPerSec);
    // End-to-end tail blows up (Fig 17B's latency explosion).
    EXPECT_GT(t.world.app->endToEndLatency().p99(), 10 * kTicksPerMs);
}

} // namespace
} // namespace uqsim::service
