/**
 * @file
 * Tests for the Zipkin JSON trace export and the added application
 * variants (extra Social Network query classes, E-commerce monolith).
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "apps/ecommerce.hh"
#include "apps/social_network.hh"
#include "trace/export.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

apps::WorldConfig
cfg(unsigned servers = 5)
{
    apps::WorldConfig c;
    c.workerServers = servers;
    return c;
}

TEST(TraceExportTest, EmptyStoreIsEmptyArray)
{
    trace::TraceStore store;
    EXPECT_EQ(trace::toZipkinJson(store), "[]\n");
}

TEST(TraceExportTest, SpansCarryZipkinFields)
{
    trace::TraceStore store;
    trace::Span sp;
    sp.traceId = 0xabc;
    sp.spanId = 0x123;
    sp.parentSpanId = 0x99;
    sp.service = store.intern("composePost");
    sp.start = 1000;
    sp.end = 51000;
    sp.appTime = 30000;
    sp.networkTime = 10000;
    store.insert(sp);

    const std::string json = trace::toZipkinJson(store);
    EXPECT_NE(json.find("\"traceId\":\"0000000000000abc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"id\":\"0000000000000123\""),
              std::string::npos);
    EXPECT_NE(json.find("\"parentId\":\"0000000000000099\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"composePost\""), std::string::npos);
    EXPECT_NE(json.find("\"duration\":50"), std::string::npos); // us
    EXPECT_NE(json.find("\"serviceName\":\"composePost\""),
              std::string::npos);
}

TEST(TraceExportTest, FailedSpansCarryStatusTags)
{
    trace::TraceStore store;
    trace::Span ok;
    ok.traceId = 1;
    ok.spanId = 2;
    ok.service = store.intern("healthy");
    ok.start = 1000;
    ok.end = 2000;
    store.insert(ok);
    trace::Span bad;
    bad.traceId = 1;
    bad.spanId = 3;
    bad.service = store.intern("flaky");
    bad.start = 1000;
    bad.end = 2000;
    bad.status = static_cast<std::uint8_t>(trace::SpanStatus::Timeout);
    bad.attempt = 3;
    store.insert(bad);

    const std::string zipkin = trace::toZipkinJson(store);
    EXPECT_NE(zipkin.find("\"error\":\"timeout\""), std::string::npos);
    EXPECT_NE(zipkin.find("\"attempt\":\"3\""), std::string::npos);

    const std::string perfetto = trace::toPerfettoJson(store);
    // Failed hops land in their own category with status/attempt args.
    EXPECT_NE(perfetto.find("\"cat\":\"rpc.error\""), std::string::npos);
    EXPECT_NE(perfetto.find("\"status\":\"timeout\""), std::string::npos);
    EXPECT_NE(perfetto.find("\"attempt\":3"), std::string::npos);
    // The healthy span keeps the plain category.
    EXPECT_NE(perfetto.find("\"cat\":\"rpc\""), std::string::npos);
}

TEST(TraceExportTest, HealthySpansCarryNoStatusTags)
{
    trace::TraceStore store;
    trace::Span sp;
    sp.traceId = 1;
    sp.spanId = 2;
    sp.service = store.intern("healthy");
    sp.start = 1000;
    sp.end = 2000;
    store.insert(sp);
    // No failures anywhere: the legacy export stays byte-for-byte free
    // of resilience vocabulary.
    EXPECT_EQ(trace::toZipkinJson(store).find("error"), std::string::npos);
    const std::string perfetto = trace::toPerfettoJson(store);
    EXPECT_EQ(perfetto.find("rpc.error"), std::string::npos);
    EXPECT_EQ(perfetto.find("status"), std::string::npos);
    EXPECT_EQ(perfetto.find("attempt"), std::string::npos);
}

TEST(TraceExportTest, RootSpanOmitsParentId)
{
    trace::TraceStore store;
    trace::Span sp;
    sp.traceId = 1;
    sp.spanId = 2;
    sp.parentSpanId = trace::kNoParent;
    sp.service = store.intern("client");
    sp.start = 0;
    sp.end = 10;
    store.insert(sp);
    EXPECT_EQ(trace::toZipkinJson(store).find("parentId"),
              std::string::npos);
}

TEST(TraceExportTest, MaxSpansCapsOutput)
{
    trace::TraceStore store;
    for (int i = 0; i < 10; ++i) {
        trace::Span sp;
        sp.traceId = 1;
        sp.spanId = static_cast<trace::SpanId>(i + 1);
        sp.service = store.intern("svc");
        sp.start = 0;
        sp.end = 1;
        store.insert(sp);
    }
    const std::string json = trace::toZipkinJson(store, 3);
    std::size_t count = 0, pos = 0;
    while ((pos = json.find("\"id\":", pos)) != std::string::npos) {
        ++count;
        pos += 5;
    }
    EXPECT_EQ(count, 3u);
}

TEST(TraceExportTest, RealRunProducesBalancedJson)
{
    apps::World w(cfg());
    apps::buildSocialNetwork(w);
    workload::runLoad(*w.app, 100.0, kTicksPerSec, kTicksPerSec,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(50), 3);
    const std::string json =
        trace::toZipkinJson(w.app->traceStore(), 500);
    // Braces and brackets balance.
    long depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GT(json.size(), 1000u);
}

TEST(PerfettoExportTest, EventsCarryTrackMetadata)
{
    trace::TraceStore store;
    trace::Span root;
    root.traceId = 0x42;
    root.spanId = 1;
    root.service = store.intern("frontend");
    root.start = 0;
    root.end = 2000;
    store.insert(root);
    trace::Span child = root;
    child.spanId = 2;
    child.parentSpanId = 1;
    child.service = store.intern("backend");
    child.start = 500;
    child.end = 1500;
    store.insert(child);

    const std::string json = trace::toPerfettoJson(store);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // One process_name per trace, one thread_name per service track.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"frontend\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"backend\""), std::string::npos);
    // Complete ("X") events for both spans, tagged with components.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"downstreamUs\""), std::string::npos);
    // Eviction accounting rides along for tooling.
    EXPECT_NE(json.find("\"spansEvicted\":0"), std::string::npos);
}

TEST(PerfettoExportTest, RealRunProducesBalancedJson)
{
    apps::World w(cfg());
    apps::buildSocialNetwork(w);
    workload::runLoad(*w.app, 100.0, kTicksPerSec, kTicksPerSec,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(50), 3);
    const std::string json =
        trace::toPerfettoJson(w.app->traceStore(), 500);
    long depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GT(json.size(), 1000u);
}

TEST(SocialQueriesTest, NewQueryClassesExerciseTheRightTiers)
{
    apps::World w(cfg());
    const auto q = apps::buildSocialNetwork(w);
    service::App &app = *w.app;

    auto servedOf = [&](const char *svc) {
        std::uint64_t total = 0;
        for (const auto &inst : app.service(svc).instances())
            total += inst->served();
        return total;
    };

    // Direct messages write straight into a timeline inbox.
    app.inject(q.directMessage, 7);
    w.ctx.run();
    EXPECT_EQ(servedOf("writeTimeline"), 1u);
    EXPECT_EQ(servedOf("composePost"), 0u);

    // Blocking a user touches blockedUsers and the social graph.
    app.inject(q.blockUser, 7);
    w.ctx.run();
    EXPECT_GE(servedOf("blockedUsers"), 1u);
    EXPECT_GE(servedOf("writeGraph"), 1u);

    // A reply reads the post then composes.
    app.inject(q.reply, 7);
    w.ctx.run();
    EXPECT_GE(servedOf("readPost"), 1u);
    EXPECT_EQ(servedOf("composePost"), 1u);
}

TEST(EcommerceMonolithTest, BuildsSixTiersAndServes)
{
    apps::World w(cfg());
    const auto q = apps::buildEcommerceMonolith(w);
    EXPECT_EQ(w.app->services().size(), 6u);
    EXPECT_TRUE(w.app->hasService("monolith"));
    auto r = workload::runLoad(*w.app, 150.0, kTicksPerSec,
                               2 * kTicksPerSec,
                               workload::QueryMix::fromApp(*w.app),
                               workload::UserPopulation::uniform(100),
                               5);
    EXPECT_GT(r.completed, 0u);
    // Orders remain far slower than browsing, as in the tiered app.
    const auto &browse =
        w.app->endToEndLatencyFor(q.browseCatalogue);
    const auto &order = w.app->endToEndLatencyFor(q.placeOrder);
    ASSERT_GT(browse.count(), 0u);
    ASSERT_GT(order.count(), 0u);
    EXPECT_GT(order.mean(), browse.mean());
}

} // namespace
} // namespace uqsim
