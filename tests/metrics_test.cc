/**
 * @file
 * Tests for the unified metrics registry: get-or-create semantics,
 * stable references, deterministic snapshots and reset.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/json.hh"
#include "core/metrics.hh"

namespace uqsim {
namespace {

TEST(MetricsRegistryTest, OwnsNamedMetrics)
{
    MetricsRegistry reg;
    reg.counter("app.requests").inc(3);
    reg.gauge("monitor.load").set(0.7);
    EXPECT_EQ(reg.counter("app.requests").value(), 3u);
    EXPECT_EQ(reg.gauge("monitor.load").value(), 0.7);
    EXPECT_TRUE(reg.has("app.requests"));
    EXPECT_TRUE(reg.has("monitor.load"));
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, ReferencesAreStable)
{
    MetricsRegistry reg;
    Counter &first = reg.counter("a");
    // Registering many more metrics must not move the original.
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    EXPECT_EQ(&first, &reg.counter("a"));
    first.inc();
    EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(MetricsRegistryTest, DumpIsNameOrdered)
{
    MetricsRegistry reg;
    reg.counter("zeta").inc();
    reg.counter("alpha").inc();
    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

TEST(MetricsRegistryTest, JsonSnapshotIsBalancedAndComplete)
{
    MetricsRegistry reg;
    reg.counter("app.requests").inc(42);
    reg.gauge("monitor.util").set(0.25);

    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"app.requests\":42"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"monitor.util\":0.25"), std::string::npos);
    long depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, ResetAllZeroesEverything)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("c");
    c.inc(9);
    reg.gauge("g").set(5.0);
    reg.resetAll();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    // Same instance after reset: held references stay valid.
    EXPECT_EQ(&c, &reg.counter("c"));
}

TEST(MetricsRegistryTest, SnapshotJsonIsByteStableAndRoundTrips)
{
    // Names inserted out of order, with every character class the
    // emitter must escape for the snapshot to stay parseable.
    MetricsRegistry reg;
    reg.counter("zeta.\"quoted\"").inc(7);
    reg.counter("alpha\\back").inc(1);
    reg.gauge("tab\there").set(1.5);
    reg.counter("newline\nname").inc(2);

    const std::string a = reg.snapshotJson();
    EXPECT_EQ(a, reg.snapshotJson()); // byte-stable across calls

    // Round-trip through the strict parser: escaped names survive.
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(a, root, error)) << error << "\n" << a;
    EXPECT_EQ(root.object.size(), 2u); // counters and gauges only
    const json::Value *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->isObject());
    const json::Value *quoted = counters->find("zeta.\"quoted\"");
    ASSERT_NE(quoted, nullptr);
    EXPECT_EQ(quoted->number, 7.0);
    ASSERT_NE(counters->find("alpha\\back"), nullptr);
    const json::Value *newline = counters->find("newline\nname");
    ASSERT_NE(newline, nullptr);
    EXPECT_EQ(newline->number, 2.0);
    const json::Value *gauges = root.find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->find("tab\there"), nullptr);

    // Keys are sorted unconditionally, whatever the insertion order.
    ASSERT_EQ(counters->object.size(), 3u);
    EXPECT_EQ(counters->object[0].first, "alpha\\back");

    // Escapes the tiny parser cannot read back still render as valid
    // JSON escape sequences, not raw control bytes.
    MetricsRegistry ctrl;
    ctrl.counter(std::string("bell\x07" "cr\rff\fbs\b")).inc();
    const std::string c = ctrl.snapshotJson();
    EXPECT_NE(c.find("\\u0007"), std::string::npos);
    EXPECT_NE(c.find("\\r"), std::string::npos);
    EXPECT_NE(c.find("\\f"), std::string::npos);
    EXPECT_NE(c.find("\\b"), std::string::npos);
    for (char ch : c)
        EXPECT_TRUE(static_cast<unsigned char>(ch) >= 0x20 ||
                    ch == '\n')
            << "raw control byte leaked into the snapshot";
}

} // namespace
} // namespace uqsim
