/**
 * @file
 * Unit tests for the simulation driver, including the regression test
 * for clock visibility inside callbacks.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "core/types.hh"

namespace uqsim {
namespace {

TEST(SimulatorTest, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulatorTest, CallbackSeesItsFiringTime)
{
    // Regression: callbacks must observe now() == their firing time,
    // not the previous event's time.
    Simulator sim;
    Tick seen = 0;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, NestedSchedulingIsRelativeToFiringTime)
{
    Simulator sim;
    Tick inner = 0;
    sim.schedule(100, [&] {
        sim.schedule(50, [&] { inner = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(inner, 150u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline)
{
    Simulator sim;
    sim.schedule(10, [] {});
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsQueued)
{
    Simulator sim;
    bool early = false, late = false;
    sim.schedule(10, [&] { early = true; });
    sim.schedule(1000, [&] { late = true; });
    sim.runUntil(100);
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.queue().size(), 1u);
    sim.run();
    EXPECT_TRUE(late);
}

TEST(SimulatorTest, RunForIsRelative)
{
    Simulator sim;
    sim.runFor(100);
    sim.runFor(100);
    EXPECT_EQ(sim.now(), 200u);
}

TEST(SimulatorTest, RunForSaturatesAtMaxTick)
{
    // now + kMaxTick would wrap into the past; the sum saturates.
    Simulator sim;
    bool fired = false;
    sim.schedule(1000, [&] { fired = true; });
    sim.runUntil(100);
    sim.runFor(kMaxTick);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), kMaxTick);
}

TEST(SimulatorTest, EventAtDeadlineRuns)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(100, [&] { fired = true; });
    sim.runUntil(100);
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    Tick seen = 0;
    sim.scheduleAt(77, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 77u);
}

TEST(SimulatorTest, EventsExecutedCounts)
{
    Simulator sim;
    for (int i = 0; i < 5; ++i)
        sim.schedule(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

TEST(SimulatorDeathTest, ScheduleAtPastPanics)
{
    Simulator sim;
    sim.schedule(10, [] {});
    sim.runUntil(100);
    EXPECT_DEATH(sim.scheduleAt(50, [] {}), "in the past");
}

TEST(SimulatorDeathTest, RunUntilPastPanics)
{
    Simulator sim;
    sim.runUntil(100);
    EXPECT_DEATH(sim.runUntil(50), "in the past");
}

} // namespace
} // namespace uqsim
