/**
 * @file
 * Tests for counters and time-weighted gauges. The named registry is
 * covered in metrics_test.cc.
 */

#include <gtest/gtest.h>

#include "core/stats.hh"

namespace uqsim {
namespace {

TEST(CounterTest, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TimeWeightedGaugeTest, ConstantValueAverage)
{
    TimeWeightedGauge g;
    g.update(0, 0.5);
    EXPECT_NEAR(g.average(100), 0.5, 1e-9);
}

TEST(TimeWeightedGaugeTest, StepChangeWeightsByDuration)
{
    TimeWeightedGauge g;
    g.update(0, 0.0);
    g.update(50, 1.0); // 0.0 for [0,50), 1.0 for [50,100)
    EXPECT_NEAR(g.average(100), 0.5, 1e-9);
}

TEST(TimeWeightedGaugeTest, PeakTracksMaximum)
{
    TimeWeightedGauge g;
    g.update(0, 0.2);
    g.update(10, 0.9);
    g.update(20, 0.1);
    EXPECT_NEAR(g.peak(), 0.9, 1e-9);
}

TEST(TimeWeightedGaugeTest, ResetRestartsIntegration)
{
    TimeWeightedGauge g;
    g.update(0, 1.0);
    g.reset(100);
    g.update(100, 0.0);
    EXPECT_NEAR(g.average(200), 0.0, 1e-9);
}

TEST(TimeWeightedGaugeTest, AverageAtResetTimeIsCurrent)
{
    TimeWeightedGauge g;
    g.update(0, 0.7);
    g.reset(10);
    EXPECT_NEAR(g.average(10), 0.7, 1e-9);
}

} // namespace
} // namespace uqsim
