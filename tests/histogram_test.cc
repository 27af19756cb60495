/**
 * @file
 * Tests for the log-bucketed histogram, including a property test
 * comparing percentile queries against exact sorted-sample answers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/histogram.hh"
#include "core/rng.hh"

namespace uqsim {
namespace {

TEST(HistogramTest, EmptyReturnsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(99.0), 0u);
    EXPECT_EQ(h.percentile(100.0), 0u);
}

TEST(HistogramTest, SingleValue)
{
    Histogram h;
    h.record(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.mean(), 1000.0);
    // With one sample every percentile is that sample, exactly: the
    // bucket upper bound is clamped to the tracked min/max.
    for (double p : {0.0, 0.1, 50.0, 99.9, 100.0})
        EXPECT_EQ(h.percentile(p), 1000u) << "p=" << p;
}

TEST(HistogramTest, ExtremePercentilesAreExact)
{
    // p0 and p100 must return the exact tracked min/max, not the
    // (possibly overshooting) upper bound of their buckets.
    Histogram h;
    h.record(1000003);
    h.record(999);
    h.record(5000);
    EXPECT_EQ(h.percentile(0.0), 999u);
    EXPECT_EQ(h.percentile(-5.0), 999u);  // clamped into [0, 100]
    EXPECT_EQ(h.percentile(100.0), 1000003u);
    EXPECT_EQ(h.percentile(250.0), 1000003u);
    // Interior percentiles stay within [min, max].
    for (double p = 1.0; p < 100.0; p += 7.0) {
        EXPECT_GE(h.percentile(p), h.min());
        EXPECT_LE(h.percentile(p), h.max());
    }
}

TEST(HistogramTest, HugeValuesSaturateSafely)
{
    Histogram h;
    h.record(~0ull);        // kMaxTick-style sentinel
    h.record(~0ull - 1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), ~0ull);
    EXPECT_EQ(h.percentile(100.0), ~0ull);
    EXPECT_LE(h.percentile(50.0), ~0ull);
}

TEST(HistogramTest, SmallValuesAreExact)
{
    // Values below the sub-bucket count live in exact unit buckets.
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.percentile(100.0), 63u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, CountAndMean)
{
    Histogram h;
    h.record(100, 5);
    h.record(200, 5);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_NEAR(h.mean(), 150.0, 1e-9);
}

TEST(HistogramTest, PercentileMonotone)
{
    Histogram h;
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        h.record(static_cast<std::uint64_t>(rng.exponential(50000.0)));
    std::uint64_t prev = 0;
    for (double p = 1.0; p <= 100.0; p += 1.0) {
        const std::uint64_t v = h.percentile(p);
        ASSERT_GE(v, prev);
        prev = v;
    }
}

TEST(HistogramTest, MergeCombinesCounts)
{
    Histogram a, b;
    a.record(100);
    b.record(10000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 100u);
    EXPECT_GE(a.max(), 10000u);
}

TEST(HistogramTest, ResetClears)
{
    Histogram h;
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(HistogramTest, MaxNeverExceededByPercentile)
{
    Histogram h;
    h.record(1000003);
    h.record(17);
    EXPECT_LE(h.percentile(100.0), h.max());
}

TEST(HistogramTest, PercentileErrorStaysWithinStatedBound)
{
    // The header's bound: percentile() overstates a sample by less than
    // 2^-(subBucketBits-1) of it, 3.125% for 6 bits. Sweep 64..2M:
    // every value below 512, then 256 evenly spaced values per octave,
    // which include every bucket's lower edge, where the error peaks.
    constexpr std::uint64_t kTop = 4'000'000; // above every swept value
    const double bound = 1.0 / 32.0;
    double worst = 0.0;
    std::uint64_t worstAt = 0;
    for (std::uint64_t v = 64; v <= 2'000'000;
         v += std::max<std::uint64_t>(1, std::bit_floor(v) >> 8)) {
        Histogram h;
        h.record(v);
        h.record(kTop); // keeps the clamp to max() from hiding the bucket
        const std::uint64_t got = h.percentile(50.0);
        ASSERT_GE(got, v);
        const double err =
            static_cast<double>(got - v) / static_cast<double>(v);
        ASSERT_LT(err, bound) << "v=" << v;
        if (err > worst) {
            worst = err;
            worstAt = v;
        }
    }
    // The bound is tight: the old "~1.6%" claim was not.
    EXPECT_GT(worst, 0.031);
    EXPECT_EQ(worstAt, 1048576u);
}

/**
 * Property: the histogram percentile must match the exact empirical
 * percentile within the bucketing's relative error (~3.2% for 6 sub-
 * bucket bits), across very different distributions.
 */
class HistogramAccuracyTest : public ::testing::TestWithParam<int>
{};

TEST_P(HistogramAccuracyTest, MatchesSortedSamples)
{
    Rng rng(100 + GetParam());
    Histogram h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t v = 0;
        switch (GetParam()) {
          case 0:
            v = static_cast<std::uint64_t>(rng.exponential(1e6));
            break;
          case 1:
            v = static_cast<std::uint64_t>(rng.uniform(0, 1e4));
            break;
          case 2:
            v = static_cast<std::uint64_t>(rng.lognormal(12.0, 1.0));
            break;
          case 3:
            v = static_cast<std::uint64_t>(
                rng.boundedPareto(1.2, 100.0, 1e8));
            break;
        }
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const std::size_t rank = static_cast<std::size_t>(
            p / 100.0 * static_cast<double>(values.size()));
        const std::uint64_t exact =
            values[std::min(rank, values.size() - 1)];
        const std::uint64_t approx = h.percentile(p);
        const double tolerance =
            std::max(2.0, static_cast<double>(exact) * 0.05);
        EXPECT_NEAR(static_cast<double>(approx),
                    static_cast<double>(exact), tolerance)
            << "p=" << p << " dist=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramAccuracyTest,
                         ::testing::Values(0, 1, 2, 3));

} // namespace
} // namespace uqsim
