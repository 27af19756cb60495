/**
 * @file
 * Tests for the open/closed-loop generators, the query mix and the
 * diurnal shape.
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "core/logging.hh"
#include "workload/generators.hh"

namespace uqsim::workload {
namespace {

apps::WorldConfig
smallConfig()
{
    apps::WorldConfig c;
    c.workerServers = 2;
    return c;
}

void
buildTrivialApp(apps::World &w, unsigned query_types = 1)
{
    service::ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(5000.0));
    front.threadsPerInstance = 64;
    w.app->addService(std::move(front)).addInstance(w.worker(0));
    w.app->setEntry("front");
    for (unsigned i = 0; i < query_types; ++i)
        w.app->addQueryType({strCat("q", i),
                             static_cast<double>(i + 1), 1.0, 0, {}});
    w.app->validate();
}

TEST(QueryMixTest, WeightsRespected)
{
    QueryMix mix({1.0, 3.0});
    Rng rng(1);
    int second = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        if (mix.sample(rng) == 1)
            ++second;
    EXPECT_NEAR(static_cast<double>(second) / n, 0.75, 0.02);
}

TEST(QueryMixTest, FromAppUsesRegisteredWeights)
{
    apps::World w(smallConfig());
    buildTrivialApp(w, 3);
    QueryMix mix = QueryMix::fromApp(*w.app);
    EXPECT_EQ(mix.size(), 3u);
}

TEST(OpenLoopTest, GeneratesApproximatelyTargetRate)
{
    apps::World w(smallConfig());
    buildTrivialApp(w);
    OpenLoopGenerator gen(*w.app, QueryMix({1.0}),
                          UserPopulation::uniform(10), 3);
    gen.setQps(500.0);
    gen.start();
    w.ctx.runFor(4 * kTicksPerSec);
    gen.stop();
    EXPECT_NEAR(static_cast<double>(gen.generated()), 2000.0, 150.0);
    EXPECT_NEAR(static_cast<double>(w.app->injected()), 2000.0, 150.0);
}

TEST(OpenLoopTest, StopHaltsInjection)
{
    apps::World w(smallConfig());
    buildTrivialApp(w);
    OpenLoopGenerator gen(*w.app, QueryMix({1.0}),
                          UserPopulation::uniform(10), 3);
    gen.setQps(1000.0);
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    gen.stop();
    const auto count = gen.generated();
    w.ctx.runFor(kTicksPerSec);
    EXPECT_EQ(gen.generated(), count);
}

TEST(OpenLoopTest, RateShapeModulatesArrivals)
{
    apps::World w(smallConfig());
    buildTrivialApp(w);
    OpenLoopGenerator gen(*w.app, QueryMix({1.0}),
                          UserPopulation::uniform(10), 3);
    gen.setArrivalProcess(std::make_unique<ShapedProcess>(
        1000.0, ArrivalKind::Diurnal,
        [](Tick t) {
            return t < kTicksPerSec ? 0.1 : 1.0; // quiet first second
        },
        1.0, 4));
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    const auto quiet = gen.generated();
    w.ctx.runFor(kTicksPerSec);
    const auto busy = gen.generated() - quiet;
    EXPECT_GT(busy, 5 * quiet);
}

TEST(ClosedLoopTest, ConcurrencyBoundsInFlight)
{
    apps::World w(smallConfig());
    buildTrivialApp(w);
    ClosedLoopGenerator gen(*w.app, QueryMix({1.0}),
                            UserPopulation::uniform(10), 8,
                            Dist::constant(1000000.0), 3);
    gen.start();
    w.ctx.runFor(kTicksPerSec);
    gen.stop();
    // Each user cycles roughly every (latency + 1ms think).
    EXPECT_GT(gen.generated(), 1000u);
    EXPECT_LT(gen.generated(), 9000u);
}

TEST(DiurnalTest, ShapeBounded)
{
    DiurnalShape d(kTicksPerSec * 100, 0.2);
    for (Tick t = 0; t < kTicksPerSec * 100; t += kTicksPerSec)
        ASSERT_GE(d.at(t), 0.2);
    for (Tick t = 0; t < kTicksPerSec * 100; t += kTicksPerSec)
        ASSERT_LE(d.at(t), 1.0 + 1e-9);
}

TEST(DiurnalTest, PeakExceedsNight)
{
    DiurnalShape d(kTicksPerSec * 100, 0.2);
    const double night = d.at(0);
    const double midday = d.at(kTicksPerSec * 50);
    EXPECT_GT(midday, 2.0 * night);
}

} // namespace
} // namespace uqsim::workload
