/**
 * @file
 * Tests for the server/cluster compute model: task timing, FCFS core
 * scheduling, DVFS stretching and fault injection.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "cpu/server.hh"

namespace uqsim::cpu {
namespace {

CoreModel
tinyModel(unsigned cores, double mhz)
{
    CoreModel m = CoreModel::xeon();
    m.coresPerServer = cores;
    m.nominalFreqMhz = mhz;
    m.minFreqMhz = 100.0;
    return m;
}

TEST(ServerTest, TaskDurationMatchesCyclesIpcFreq)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0)); // 1 GHz: 1 cycle per ns
    Tick done_at = 0;
    s.execute(5000, 1.0, [&](Tick busy) {
        done_at = sim.now();
        EXPECT_EQ(busy, 5000u);
    });
    sim.run();
    EXPECT_EQ(done_at, 5000u);
}

TEST(ServerTest, IpcScalesDuration)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    Tick done_at = 0;
    s.execute(5000, 2.0, [&](Tick) { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, 2500u);
}

TEST(ServerTest, FrequencyCapStretchesExecution)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    s.setFrequencyMhz(500.0);
    Tick done_at = 0;
    s.execute(5000, 1.0, [&](Tick) { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, 10000u);
}

TEST(ServerTest, FrequencyClampedToMin)
{
    Simulator sim;
    CoreModel m = tinyModel(1, 1000.0);
    m.minFreqMhz = 800.0;
    Server s(sim, 0, m);
    s.setFrequencyMhz(100.0);
    EXPECT_EQ(s.frequencyMhz(), 800.0);
}

TEST(ServerTest, SlowFactorStretchesExecution)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    s.setSlowFactor(3.0);
    Tick done_at = 0;
    s.execute(1000, 1.0, [&](Tick) { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, 3000u);
}

TEST(ServerTest, TasksQueueWhenCoresBusy)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    Tick first = 0, second = 0;
    s.execute(1000, 1.0, [&](Tick) { first = sim.now(); });
    s.execute(1000, 1.0, [&](Tick) { second = sim.now(); });
    EXPECT_EQ(s.busyCores(), 1u);
    EXPECT_EQ(s.queueLength(), 1u);
    sim.run();
    EXPECT_EQ(first, 1000u);
    EXPECT_EQ(second, 2000u); // serialized on the single core
}

TEST(ServerTest, ParallelCoresRunConcurrently)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(2, 1000.0));
    Tick first = 0, second = 0;
    s.execute(1000, 1.0, [&](Tick) { first = sim.now(); });
    s.execute(1000, 1.0, [&](Tick) { second = sim.now(); });
    sim.run();
    EXPECT_EQ(first, 1000u);
    EXPECT_EQ(second, 1000u);
}

TEST(ServerTest, UtilizationReflectsBusyFraction)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(2, 1000.0));
    s.execute(1000, 1.0, [](Tick) {});
    sim.runUntil(2000);
    // One of two cores busy for half the window: 25%.
    EXPECT_NEAR(s.utilizationAvg(), 0.25, 0.02);
}

TEST(ServerTest, StatResetClearsAccounting)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    s.execute(1000, 1.0, [](Tick) {});
    sim.run();
    EXPECT_EQ(s.tasksCompleted(), 1u);
    s.statReset();
    EXPECT_EQ(s.tasksCompleted(), 0u);
    EXPECT_EQ(s.totalBusyTime(), 0u);
}

TEST(ServerTest, InFlightFrequencyChangeAffectsOnlyNewTasks)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(2, 1000.0));
    Tick first = 0, second = 0;
    s.execute(1000, 1.0, [&](Tick) { first = sim.now(); });
    s.setFrequencyMhz(500.0);
    s.execute(1000, 1.0, [&](Tick) { second = sim.now(); });
    sim.run();
    EXPECT_EQ(first, 1000u);  // started before the cap
    EXPECT_EQ(second, 2000u); // started after the cap
}

/** Counts copies of itself; moves are free. */
struct CopyCounter
{
    explicit CopyCounter(int *copies) : copies(copies) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter &&o) noexcept = default;
    CopyCounter &operator=(const CopyCounter &) = delete;
    void operator()(Tick) const {}
    int *copies;
};

TEST(ServerTest, CompletionCallbackIsNeverCopied)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    int copies = 0;
    // The second task queues behind the first, so both the immediate
    // and the pending start path are covered.
    s.execute(1000, 1.0, CopyCounter(&copies));
    s.execute(1000, 1.0, CopyCounter(&copies));
    sim.run();
    EXPECT_EQ(s.tasksCompleted(), 2u);
    EXPECT_EQ(copies, 0);
}

TEST(ClusterTest, AddAndAccessServers)
{
    Simulator sim;
    Cluster c(sim);
    c.addServers(3, tinyModel(2, 1000.0));
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.server(1).id(), 1u);
}

TEST(ClusterTest, RoundRobinCycles)
{
    Simulator sim;
    Cluster c(sim);
    c.addServers(3, tinyModel(1, 1000.0));
    EXPECT_EQ(c.nextServerRoundRobin().id(), 0u);
    EXPECT_EQ(c.nextServerRoundRobin().id(), 1u);
    EXPECT_EQ(c.nextServerRoundRobin().id(), 2u);
    EXPECT_EQ(c.nextServerRoundRobin().id(), 0u);
}

TEST(ClusterTest, SlowServerInjectionAndClear)
{
    Simulator sim;
    Cluster c(sim);
    c.addServers(4, tinyModel(1, 1000.0));
    c.injectSlowServers(2, 5.0);
    EXPECT_EQ(c.server(0).slowFactor(), 5.0);
    EXPECT_EQ(c.server(1).slowFactor(), 5.0);
    EXPECT_EQ(c.server(2).slowFactor(), 1.0);
    c.clearSlowServers();
    EXPECT_EQ(c.server(0).slowFactor(), 1.0);
}

TEST(ClusterTest, GlobalFrequencyCap)
{
    Simulator sim;
    Cluster c(sim);
    c.addServers(2, tinyModel(1, 2000.0));
    c.setAllFrequenciesMhz(1200.0);
    EXPECT_EQ(c.server(0).frequencyMhz(), 1200.0);
    EXPECT_EQ(c.server(1).frequencyMhz(), 1200.0);
}

TEST(ServerDeathTest, ZeroIpcPanics)
{
    Simulator sim;
    Server s(sim, 0, tinyModel(1, 1000.0));
    EXPECT_DEATH(s.execute(100, 0.0, [](Tick) {}), "IPC");
}

} // namespace
} // namespace uqsim::cpu
