/**
 * @file
 * QuantileSketch tests: the O(1) streaming sketch must answer any
 * quantile within its stated relative error bound (1/64) against the
 * exact order statistics, across distribution shapes — uniform,
 * exponential (heavy right tail), lognormal, bounded Pareto and
 * bimodal (the classic cache hit/miss latency mixture a mean would
 * hide) — plus its edges: exact small values, saturation at ~0ull,
 * clamping, monotonicity, merge and reset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/quantile_sketch.hh"
#include "core/rng.hh"

namespace uqsim {
namespace {

/** Exact order statistic with the sketch's own rank convention. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size()) + 0.5;
    std::uint64_t rank = static_cast<std::uint64_t>(pos);
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

/** Assert every interesting quantile is within the documented bound. */
void
expectWithinBound(const std::vector<std::uint64_t> &samples,
                  const char *label)
{
    QuantileSketch sketch;
    for (std::uint64_t v : samples)
        sketch.record(v);
    ASSERT_EQ(sketch.count(), samples.size());

    const double bound = QuantileSketch::relativeErrorBound();

    for (double q : {0.50, 0.90, 0.95, 0.99, 0.999}) {
        const std::uint64_t exact = exactQuantile(samples, q);
        const std::uint64_t approx = sketch.quantile(q);
        // The sketch answers the upper bound of the bucket holding
        // the requested rank: never below the exact order statistic,
        // never more than one bucket width above it.
        EXPECT_GE(approx, exact) << label << " q=" << q;
        EXPECT_LE(static_cast<double>(approx),
                  static_cast<double>(exact) * (1.0 + bound) + 1.0)
            << label << " q=" << q << " exact=" << exact
            << " approx=" << approx;
    }
}

TEST(QuantileSketchTest, UniformWithinBound)
{
    std::mt19937_64 rng(1);
    std::uniform_int_distribution<std::uint64_t> d(1000, 50'000'000);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(d(rng));
    expectWithinBound(samples, "uniform");
}

TEST(QuantileSketchTest, ExponentialWithinBound)
{
    std::mt19937_64 rng(2);
    std::exponential_distribution<double> d(1.0 / 2'000'000.0);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(static_cast<std::uint64_t>(d(rng)) + 1);
    expectWithinBound(samples, "exponential");
}

TEST(QuantileSketchTest, BimodalWithinBound)
{
    // Cache-hit (~200us) / cache-miss (~8ms) mixture: quantiles must
    // land on the correct mode, which a mean-based summary cannot do.
    std::mt19937_64 rng(3);
    std::normal_distribution<double> hit(200'000.0, 20'000.0);
    std::normal_distribution<double> miss(8'000'000.0, 500'000.0);
    std::bernoulli_distribution is_hit(0.9);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
        const double v = is_hit(rng) ? hit(rng) : miss(rng);
        samples.push_back(static_cast<std::uint64_t>(std::max(1.0, v)));
    }
    expectWithinBound(samples, "bimodal");

    QuantileSketch sketch;
    for (std::uint64_t v : samples)
        sketch.record(v);
    EXPECT_LT(sketch.p50(), 400'000u) << "p50 must sit on the hit mode";
    EXPECT_GT(sketch.p99(), 6'000'000u)
        << "p99 must sit on the miss mode";
}

/**
 * The same property with Rng's own generators: exponential, uniform,
 * lognormal and bounded Pareto, 50000 samples each.
 */
class QuantileSketchAccuracyTest : public ::testing::TestWithParam<int>
{};

TEST_P(QuantileSketchAccuracyTest, MatchesSortedSamples)
{
    static const char *const kNames[] = {"exponential", "uniform",
                                         "lognormal", "bounded pareto"};
    Rng rng(100 + GetParam());
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 50000; ++i) {
        double v = 0.0;
        switch (GetParam()) {
          case 0:
            v = rng.exponential(1e6);
            break;
          case 1:
            v = rng.uniform(0, 1e4);
            break;
          case 2:
            v = rng.lognormal(12.0, 1.0);
            break;
          case 3:
            v = rng.boundedPareto(1.2, 100.0, 1e8);
            break;
        }
        samples.push_back(static_cast<std::uint64_t>(v));
    }
    expectWithinBound(samples, kNames[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(Distributions, QuantileSketchAccuracyTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(QuantileSketchTest, ExactScalarsAndEmptyState)
{
    QuantileSketch s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.quantile(0.99), 0u);

    s.record(100);
    s.record(300);
    s.record(200);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 100u); // min/max/mean are exact, not bucketed
    EXPECT_EQ(s.max(), 300u);
    EXPECT_DOUBLE_EQ(s.mean(), 200.0);
}

TEST(QuantileSketchTest, EmptyReturnsZeros)
{
    QuantileSketch s;
    for (double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(s.quantile(q), 0u) << "q=" << q;
    EXPECT_EQ(s.p50(), 0u);
    EXPECT_EQ(s.p99(), 0u);
    // Merging two empty sketches leaves an empty one.
    s.merge(QuantileSketch());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.quantile(0.5), 0u);
}

TEST(QuantileSketchTest, SingleValue)
{
    QuantileSketch s;
    s.record(1000);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.min(), 1000u);
    EXPECT_EQ(s.max(), 1000u);
    EXPECT_EQ(s.mean(), 1000.0);
    // With one sample every quantile is that sample, exactly: the
    // bucket upper bound is clamped to the tracked min/max.
    for (double q : {0.0, 0.001, 0.5, 0.999, 1.0})
        EXPECT_EQ(s.quantile(q), 1000u) << "q=" << q;
}

TEST(QuantileSketchTest, QuantileClampsToObservedRange)
{
    QuantileSketch s;
    for (int i = 0; i < 100; ++i)
        s.record(1'000'000);
    EXPECT_EQ(s.quantile(0.0), 1'000'000u);
    EXPECT_EQ(s.quantile(1.0), 1'000'000u);
    EXPECT_EQ(s.p99(), 1'000'000u);
}

TEST(QuantileSketchTest, OutOfRangeQuantilesClampToMinAndMax)
{
    // q <= 0 and q >= 1 answer the exact tracked min and max, not the
    // (possibly overshooting) upper bound of their buckets.
    QuantileSketch s;
    s.record(1000003);
    s.record(999);
    s.record(5000);
    EXPECT_EQ(s.quantile(0.0), 999u);
    EXPECT_EQ(s.quantile(-0.5), 999u);
    EXPECT_EQ(s.quantile(1.0), 1000003u);
    EXPECT_EQ(s.quantile(2.5), 1000003u);
    const double qs[] = {-3.0, 7.0};
    std::uint64_t out[2];
    s.quantiles(qs, 2, out);
    EXPECT_EQ(out[0], 999u);
    EXPECT_EQ(out[1], 1000003u);
    // Interior quantiles stay within [min, max].
    for (double q = 0.01; q < 1.0; q += 0.07) {
        EXPECT_GE(s.quantile(q), s.min()) << "q=" << q;
        EXPECT_LE(s.quantile(q), s.max()) << "q=" << q;
    }
}

TEST(QuantileSketchTest, MaxNeverExceededByQuantile)
{
    // 1000003 sits low in a bucket whose upper bound is above it: no
    // quantile may answer that bound instead of the tracked max.
    QuantileSketch s;
    s.record(1000003);
    s.record(17);
    EXPECT_EQ(s.quantile(1.0), s.max());
    for (int k = 0; k <= 100; ++k)
        EXPECT_LE(s.quantile(k / 100.0), s.max()) << "q=" << k / 100.0;
}

TEST(QuantileSketchTest, HugeValuesSaturateSafely)
{
    // ~0ull (a kMaxTick-style sentinel) lands in the last bucket, whose
    // upper bound is ~0ull itself.
    QuantileSketch s;
    s.record(~0ull);
    s.record(~0ull - 1);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_EQ(s.max(), ~0ull);
    EXPECT_EQ(s.quantile(1.0), ~0ull);
    EXPECT_EQ(s.quantile(0.5), ~0ull);
    s.record(1);
    EXPECT_EQ(s.quantile(0.3), 1u);
    EXPECT_EQ(s.p99(), ~0ull);
}

TEST(QuantileSketchTest, SmallValuesAreExact)
{
    // Below 128 every bucket is one value wide. A larger second
    // sample keeps the clamp to max() from hiding the bucket.
    for (std::uint64_t v = 0; v < 128; ++v) {
        QuantileSketch s;
        s.record(v);
        s.record(1'000'000);
        ASSERT_EQ(s.quantile(0.5), v);
    }
    // 128 opens the first two-value bucket.
    QuantileSketch s;
    s.record(128);
    s.record(1'000'000);
    EXPECT_EQ(s.quantile(0.5), 129u);
}

TEST(QuantileSketchTest, QuantilesAreMonotone)
{
    Rng rng(3);
    QuantileSketch s;
    for (int i = 0; i < 10000; ++i)
        s.record(static_cast<std::uint64_t>(rng.exponential(50000.0)));
    std::uint64_t prev = 0;
    for (int k = 0; k <= 100; ++k) {
        const std::uint64_t v = s.quantile(k / 100.0);
        ASSERT_GE(v, prev) << "q=" << k / 100.0;
        prev = v;
    }
    EXPECT_EQ(prev, s.max());
}

TEST(QuantileSketchTest, QuantileErrorStaysWithinStatedBound)
{
    // quantile() overstates a sample by less than
    // relativeErrorBound() = 1/64 of it. Sweep 64..2M: every value
    // below 512, then 256 evenly spaced values per octave, which
    // include every bucket's lower edge, where the error peaks.
    constexpr std::uint64_t kTop = 4'000'000; // above every swept value
    const double bound = QuantileSketch::relativeErrorBound();
    EXPECT_DOUBLE_EQ(bound, 1.0 / 64.0);
    double worst = 0.0;
    std::uint64_t worstAt = 0;
    for (std::uint64_t v = 64; v <= 2'000'000;
         v += std::max<std::uint64_t>(1, std::bit_floor(v) >> 8)) {
        QuantileSketch s;
        s.record(v);
        s.record(kTop); // keeps the clamp to max() from hiding the bucket
        const std::uint64_t got = s.quantile(0.5);
        ASSERT_GE(got, v);
        const double err =
            static_cast<double>(got - v) / static_cast<double>(v);
        ASSERT_LT(err, bound) << "v=" << v;
        if (err > worst) {
            worst = err;
            worstAt = v;
        }
    }
    // The bound is tight: the worst case sits just under it, at the
    // lowest value of the largest swept octave.
    EXPECT_GT(worst, 0.0156);
    EXPECT_EQ(worstAt, 1048576u);
}

TEST(QuantileSketchTest, MergeMatchesCombinedStream)
{
    std::mt19937_64 rng(4);
    std::uniform_int_distribution<std::uint64_t> d(1, 10'000'000);
    QuantileSketch a, b, all;
    std::vector<std::uint64_t> combined;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t va = d(rng), vb = d(rng);
        a.record(va);
        b.record(vb);
        all.record(va);
        all.record(vb);
        combined.push_back(va);
        combined.push_back(vb);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    // Integer sums stay exact in a double, whatever the order.
    EXPECT_EQ(a.mean(), all.mean());
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_EQ(a.quantile(q), all.quantile(q))
            << "merge must be exact at q=" << q;

    // Merging an empty sketch changes nothing; merging into one copies.
    a.merge(QuantileSketch());
    QuantileSketch fresh;
    fresh.merge(all);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(fresh.count(), all.count());
    EXPECT_EQ(fresh.min(), all.min());
    for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
        EXPECT_EQ(fresh.quantile(q), all.quantile(q)) << "q=" << q;
    }
}

TEST(QuantileSketchTest, MergeCombinesCounts)
{
    QuantileSketch a, b;
    a.record(100);
    b.record(10000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 100u);
    EXPECT_EQ(a.max(), 10000u);
    EXPECT_DOUBLE_EQ(a.mean(), 5050.0);
    EXPECT_EQ(a.quantile(0.0), 100u);
    EXPECT_EQ(a.quantile(1.0), 10000u);
    // b is unchanged by being merged.
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.min(), 10000u);
}

TEST(QuantileSketchTest, ResetForgetsEverything)
{
    QuantileSketch s;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        s.record(v * 1000);
    ASSERT_GT(s.p99(), 0u);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.quantile(0.99), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);

    // And the sketch is fully reusable after the O(touched) reset.
    s.record(42);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.quantile(0.5), 42u);
}

TEST(QuantileSketchTest, ResetClears)
{
    QuantileSketch s;
    s.record(42);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.quantile(0.5), 0u);

    // A reset after a merge clears the merged buckets too: a stale one
    // between the two new samples would answer the p99.
    QuantileSketch other;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        other.record(v * 1000);
    s.merge(other);
    s.reset();
    s.record(1);
    s.record(10'000'000);
    EXPECT_EQ(s.quantile(0.99), 10'000'000u);
}

TEST(QuantileSketchTest, BatchQuantilesMatchScalarCalls)
{
    // The one-pass batch used by the telemetry sampler must agree
    // exactly with per-quantile queries, whatever the request order,
    // including the q<=0 / q>=1 exact endpoints.
    std::mt19937_64 rng(5);
    std::exponential_distribution<double> d(1.0 / 750'000.0);
    QuantileSketch s;
    for (int i = 0; i < 10000; ++i)
        s.record(static_cast<std::uint64_t>(d(rng)) + 1);

    const double qs[] = {0.99, 0.0, 0.50, 1.0, 0.95, 0.50};
    std::uint64_t out[6];
    s.quantiles(qs, 6, out);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], s.quantile(qs[i])) << "q=" << qs[i];

    // Empty sketch: everything is 0, same as quantile().
    QuantileSketch empty;
    std::uint64_t zeros[2] = {7, 7};
    const double both[] = {0.5, 0.99};
    empty.quantiles(both, 2, zeros);
    EXPECT_EQ(zeros[0], 0u);
    EXPECT_EQ(zeros[1], 0u);
}

} // namespace
} // namespace uqsim
