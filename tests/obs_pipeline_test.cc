/**
 * @file
 * Unit tests of the telemetry building blocks: the clock-observer hook
 * (boundaries fire *between* events and never perturb the execution
 * digest), the bounded Series ring and TimeSeriesStore, the SloMonitor
 * streak machine, and the Pipeline sampling a real two-tier app.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/builder.hh"
#include "core/parallel.hh"
#include "core/simulator.hh"
#include "obs/pipeline.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "service/app.hh"
#include "workload/generators.hh"

namespace uqsim {
namespace {

// -- Clock observers ---------------------------------------------------

TEST(ClockObserverTest, FiresBetweenEventsAtEachBoundary)
{
    Simulator sim;
    std::vector<std::string> log;
    for (Tick t : {Tick{5}, Tick{15}, Tick{25}})
        sim.scheduleAt(t, [&log, t] {
            log.push_back("event@" + std::to_string(t));
        });
    sim.addClockObserver(10, [&log](Tick boundary) {
        log.push_back("tick@" + std::to_string(boundary));
    });
    sim.runUntil(30);

    // Boundary B fires after every event < B and before any event
    // >= B; runUntil flushes boundaries <= deadline at the end.
    const std::vector<std::string> expect = {
        "event@5",  "tick@10", "event@15", "tick@20",
        "event@25", "tick@30",
    };
    EXPECT_EQ(log, expect);
    EXPECT_EQ(sim.now(), Tick{30});
}

TEST(ClockObserverTest, LazyFiringCatchesUpOverQuietGaps)
{
    Simulator sim;
    std::vector<Tick> boundaries;
    sim.scheduleAt(5, [] {});
    sim.scheduleAt(47, [] {});
    sim.addClockObserver(10, [&](Tick b) { boundaries.push_back(b); });
    sim.run();
    // Before executing the t=47 event, every boundary of the quiet
    // gap fires, in order.
    const std::vector<Tick> expect = {10, 20, 30, 40};
    EXPECT_EQ(boundaries, expect);
}

TEST(ClockObserverTest, ObserverLeavesDigestUntouched)
{
    auto run = [](bool observed) {
        Simulator sim;
        std::uint64_t fired = 0;
        if (observed)
            sim.addClockObserver(7, [&fired](Tick) { ++fired; });
        unsigned n = 0;
        for (unsigned i = 0; i < 200; ++i)
            sim.scheduleAt(i * 3 + 1, [&n] { ++n; });
        sim.runUntil(1000);
        return std::pair<std::uint64_t, std::uint64_t>(
            sim.executionDigest(), fired);
    };
    const auto plain = run(false);
    const auto with = run(true);
    EXPECT_EQ(plain.first, with.first)
        << "clock observers must never perturb the event stream";
    EXPECT_GT(with.second, 0u);
}

TEST(ClockObserverTest, ParallelShardsObserveIndependently)
{
    auto run = [](unsigned threads) {
        ParallelSimulator engine({2, kMaxTick, threads});
        std::vector<std::vector<Tick>> fired(2);
        for (unsigned s = 0; s < 2; ++s) {
            engine.addClockObserver(
                s, 10, [&fired, s](Tick b) { fired[s].push_back(b); });
            SimContext ctx = engine.context(s);
            for (unsigned i = 1; i <= 5; ++i)
                ctx.schedule(i * 8, [] {});
        }
        engine.runFor(50);
        return std::pair<std::uint64_t,
                         std::vector<std::vector<Tick>>>(
            engine.executionDigest(), fired);
    };
    const auto one = run(1);
    const auto four = run(4);
    EXPECT_EQ(one.first, four.first);
    EXPECT_EQ(one.second, four.second)
        << "boundary sequence must be invariant to the thread count";
    const std::vector<Tick> expect = {10, 20, 30, 40, 50};
    EXPECT_EQ(one.second[0], expect);
    EXPECT_EQ(one.second[1], expect);
}

// -- Series / store ----------------------------------------------------

obs::IntervalSample
row(Tick start, Tick end, std::uint64_t count = 1,
    std::uint64_t errors = 0)
{
    obs::IntervalSample s;
    s.start = start;
    s.end = end;
    s.count = count;
    s.errors = errors;
    const std::uint64_t fin = count + errors;
    s.errorRate =
        fin ? static_cast<double>(errors) / static_cast<double>(fin)
            : 0.0;
    return s;
}

TEST(SeriesTest, RingEvictsOldestAndKeepsOrder)
{
    obs::Series s("tier", 3);
    for (Tick t = 0; t < 5; ++t)
        s.append(row(t * 10, (t + 1) * 10));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.total(), 5u);
    EXPECT_EQ(s.evicted(), 2u);
    // Oldest-first iteration over the survivors: intervals 2, 3, 4.
    EXPECT_EQ(s.at(0).start, Tick{20});
    EXPECT_EQ(s.at(1).start, Tick{30});
    EXPECT_EQ(s.at(2).start, Tick{40});
    EXPECT_EQ(s.latest().start, Tick{40});
}

TEST(TimeSeriesStoreTest, KeysAreSortedAndStable)
{
    obs::TimeSeriesStore store(100, 16);
    store.series("zeta");
    store.series("alpha");
    store.series("alpha"); // get-or-create: no duplicate
    const std::vector<std::string> expect = {"alpha", "zeta"};
    EXPECT_EQ(store.names(), expect);
    EXPECT_NE(store.find("alpha"), nullptr);
    EXPECT_EQ(store.find("missing"), nullptr);
    EXPECT_EQ(store.interval(), Tick{100});
    EXPECT_EQ(store.capacity(), 16u);
    EXPECT_EQ(store.intervalsSampled(), 0u);
    store.noteIntervalSampled();
    EXPECT_EQ(store.intervalsSampled(), 1u);
}

// -- SloMonitor --------------------------------------------------------

TEST(SloMonitorTest, TripsAfterWindowConsecutiveBadIntervals)
{
    obs::SloConfig cfg;
    cfg.latency = 1000;
    cfg.window = 3;
    obs::SloMonitor mon(cfg);
    ASSERT_TRUE(cfg.armed());

    // Two bad intervals, one good one: streak resets, nothing trips.
    mon.observe(10, 5000.0, row(0, 10));
    mon.observe(20, 5000.0, row(10, 20));
    mon.observe(30, 100.0, row(20, 30));
    EXPECT_FALSE(mon.violated());

    // Three consecutive bad intervals: exactly one violation, with
    // the onset pointing at the episode's first bad interval.
    mon.observe(40, 5000.0, row(30, 40));
    mon.observe(50, 5000.0, row(40, 50));
    mon.observe(60, 5000.0, row(50, 60));
    ASSERT_EQ(mon.violations().size(), 1u);
    const obs::SloViolation &v = mon.violations().front();
    EXPECT_EQ(v.kind, obs::SloViolation::Kind::Latency);
    EXPECT_EQ(v.time, Tick{60});
    EXPECT_EQ(v.onset, Tick{30});
    EXPECT_EQ(v.series, "e2e");
    EXPECT_EQ(mon.firstViolationTime(), Tick{60});

    // Staying bad does not spam further violations...
    mon.observe(70, 5000.0, row(60, 70));
    EXPECT_EQ(mon.violations().size(), 1u);
    // ...until a good interval re-arms the episode machine.
    mon.observe(80, 100.0, row(70, 80));
    mon.observe(90, 5000.0, row(80, 90));
    mon.observe(100, 5000.0, row(90, 100));
    mon.observe(110, 5000.0, row(100, 110));
    EXPECT_EQ(mon.violations().size(), 2u);
}

TEST(SloMonitorTest, TrafficFreeIntervalsAreNeutral)
{
    obs::SloConfig cfg;
    cfg.latency = 1000;
    cfg.window = 2;
    obs::SloMonitor mon(cfg);
    mon.observe(10, 5000.0, row(0, 10));
    // No finishing traffic: neither extends nor resets the streak.
    mon.observe(20, 0.0, row(10, 20, 0, 0));
    mon.observe(30, 5000.0, row(20, 30));
    ASSERT_TRUE(mon.violated());
    EXPECT_EQ(mon.violations().front().onset, Tick{0});
}

TEST(SloMonitorTest, ErrorRateObjectiveCatchesCollapse)
{
    // Under a total collapse nothing completes, the latency stream
    // goes quiet — the error-rate objective still sees the failures.
    obs::SloConfig cfg;
    cfg.tier = "backend";
    cfg.errorRate = 0.1;
    cfg.window = 2;
    obs::SloMonitor mon(cfg);
    EXPECT_EQ(mon.targetSeries(), "backend");
    mon.observe(10, 0.0, row(0, 10, 0, 50));
    mon.observe(20, 0.0, row(10, 20, 0, 50));
    ASSERT_EQ(mon.violations().size(), 1u);
    EXPECT_EQ(mon.violations().front().kind,
              obs::SloViolation::Kind::ErrorRate);
    EXPECT_EQ(mon.violations().front().series, "backend");
    EXPECT_DOUBLE_EQ(mon.violations().front().value, 1.0);
}

// -- Pipeline over a real app ------------------------------------------

struct TwoTier
{
    TwoTier() : world(makeConfig())
    {
        service::App &app = *world.app;
        service::ServiceDef back;
        back.name = "backend";
        back.handler.compute(Dist::constant(120.0 * 1440.0));
        back.threadsPerInstance = 8;
        app.addService(std::move(back))
            .addInstance(world.worker(1));

        service::ServiceDef front;
        front.name = "frontend";
        front.kind = service::ServiceKind::Frontend;
        front.handler.compute(Dist::constant(60.0 * 1440.0))
            .call("backend");
        front.threadsPerInstance = 8;
        app.addService(std::move(front))
            .addInstance(world.worker(0));
        app.setEntry("frontend");
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

TEST(PipelineTest, SamplesEveryTierPlusEndToEnd)
{
    TwoTier t;
    obs::PipelineConfig pc;
    pc.interval = 100 * kTicksPerMs;
    pc.ring = 64;
    obs::Pipeline pipe(*t.world.app, pc);
    pipe.start();

    workload::OpenLoopGenerator gen(
        *t.world.app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(50), 1);
    gen.setQps(400.0);
    gen.start();
    t.world.ctx.runUntil(kTicksPerSec);
    gen.stop();
    t.world.ctx.runUntil(kTicksPerSec + 100 * kTicksPerMs);

    const std::vector<std::string> expect = {"backend", "e2e",
                                             "frontend"};
    EXPECT_EQ(pipe.store().names(), expect);
    EXPECT_GE(pipe.store().intervalsSampled(), 10u);

    const obs::Series *e2e = pipe.store().find(obs::kEndToEndSeries);
    ASSERT_NE(e2e, nullptr);
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < e2e->size(); ++i)
        ok += e2e->at(i).count;
    EXPECT_EQ(ok, t.world.app->completed());

    // A mid-run interval carries the derived signals.
    const obs::IntervalSample &mid = e2e->at(e2e->size() / 2);
    EXPECT_GT(mid.rps, 0.0);
    EXPECT_GT(mid.p50, 0u);
    EXPECT_GE(mid.p99, mid.p95);
    EXPECT_GE(mid.p95, mid.p50);
    EXPECT_GT(mid.meanLatencyNs, 0.0);

    const obs::Series *back = pipe.store().find("backend");
    ASSERT_NE(back, nullptr);
    const obs::IntervalSample &bmid = back->at(back->size() / 2);
    EXPECT_GT(bmid.count, 0u);
    EXPECT_GT(bmid.utilization, 0.0);
    EXPECT_LE(bmid.utilization, 1.0);
}

TEST(PipelineTest, AttachingThePipelineKeepsTheDigest)
{
    auto run = [](bool attach) {
        TwoTier t;
        std::unique_ptr<obs::Pipeline> pipe;
        if (attach) {
            obs::PipelineConfig pc;
            pc.interval = 50 * kTicksPerMs;
            pipe = std::make_unique<obs::Pipeline>(*t.world.app, pc);
            pipe->start();
        }
        workload::OpenLoopGenerator gen(
            *t.world.app, workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(50), 1);
        gen.setQps(300.0);
        gen.start();
        t.world.ctx.runUntil(kTicksPerSec);
        return t.world.ctx.executionDigest();
    };
    EXPECT_EQ(run(false), run(true))
        << "sampling must never perturb the simulated world";
}

} // namespace
} // namespace uqsim
