/**
 * @file
 * End-to-end tests of the App runtime on small purpose-built graphs:
 * request completion, accounting, tracing consistency, tagging,
 * caching, drops, media payloads and the FPGA offload.
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "service/app.hh"
#include "trace/analysis.hh"

namespace uqsim::service {
namespace {

/** Fixture building a three-tier app: front -> mid -> leaf. */
class AppTest : public ::testing::Test
{
  protected:
    AppTest() : world_(makeConfig()) {}

    static apps::WorldConfig
    makeConfig()
    {
        apps::WorldConfig c;
        c.workerServers = 3;
        return c;
    }

    void
    buildChain(unsigned threads = 16)
    {
        App &app = *world_.app;
        ServiceDef leaf;
        leaf.name = "leaf";
        leaf.handler.compute(Dist::constant(50000.0)); // ~35us
        leaf.threadsPerInstance = threads;
        app.addService(std::move(leaf)).addInstance(world_.worker(2));

        ServiceDef mid;
        mid.name = "mid";
        mid.handler.compute(Dist::constant(80000.0)).call("leaf");
        mid.threadsPerInstance = threads;
        app.addService(std::move(mid)).addInstance(world_.worker(1));

        ServiceDef front;
        front.name = "front";
        front.kind = ServiceKind::Frontend;
        front.handler.compute(Dist::constant(40000.0)).call("mid");
        front.threadsPerInstance = threads;
        app.addService(std::move(front)).addInstance(world_.worker(0));

        app.setEntry("front");
        app.addQueryType({"q", 1.0, 1.0, 0, {}});
        app.validate();
    }

    apps::World world_;
};

TEST_F(AppTest, SingleRequestCompletes)
{
    buildChain();
    bool done = false;
    Request result;
    world_.app->inject(0, 7, [&](const Request &r) {
        done = true;
        result = r;
    });
    world_.ctx.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.dropped);
    EXPECT_GT(result.latency(), 0u);
    EXPECT_GT(result.appTime, 0u);
    EXPECT_GT(result.networkTime, 0u);
    EXPECT_EQ(world_.app->completed(), 1u);
    EXPECT_EQ(world_.app->injected(), 1u);
}

TEST_F(AppTest, LatencyContainsComputeAndWire)
{
    buildChain();
    Tick latency = 0;
    world_.app->inject(0, 7, [&](const Request &r) { latency = r.latency(); });
    world_.ctx.run();
    // At least the three compute stages plus 6 wire crossings.
    EXPECT_GT(latency, 150 * kTicksPerUs);
    EXPECT_LT(latency, 5 * kTicksPerMs); // sane upper bound unloaded
}

TEST_F(AppTest, AccountingPartsDoNotExceedLatency)
{
    buildChain();
    Request out;
    world_.app->inject(0, 7, [&](const Request &r) { out = r; });
    world_.ctx.run();
    // Sequential chain: work components must fit inside the wall time.
    EXPECT_LE(out.appTime, out.latency());
    EXPECT_LE(out.networkTime + out.appTime + out.wireTime + out.queueTime,
              out.latency() + 1000u);
}

TEST_F(AppTest, SpansFormCompleteTree)
{
    buildChain();
    world_.app->inject(0, 7);
    world_.ctx.run();
    const auto &store = world_.app->traceStore();
    ASSERT_EQ(store.size(), 4u); // client root + 3 services
    const auto spans = store.byTrace(store.spans()[0].traceId);
    ASSERT_EQ(spans.size(), 4u);
    int roots = 0;
    for (const auto &s : spans)
        if (s.parentSpanId == trace::kNoParent)
            ++roots;
    EXPECT_EQ(roots, 1);
    // Every non-root parent id exists within the trace.
    for (const auto &s : spans) {
        if (s.parentSpanId == trace::kNoParent)
            continue;
        bool found = false;
        for (const auto &p : spans)
            if (p.spanId == s.parentSpanId)
                found = true;
        EXPECT_TRUE(found) << s.service;
    }
}

TEST_F(AppTest, SpanNestingRespectsCallOrder)
{
    buildChain();
    world_.app->inject(0, 7);
    world_.ctx.run();
    const auto &store = world_.app->traceStore();
    trace::Span front, mid, leaf;
    for (const auto &s : store.spans()) {
        if (s.service == store.serviceId("front"))
            front = s;
        if (s.service == store.serviceId("mid"))
            mid = s;
        if (s.service == store.serviceId("leaf"))
            leaf = s;
    }
    EXPECT_LE(front.start, mid.start);
    EXPECT_LE(mid.start, leaf.start);
    EXPECT_GE(front.end, mid.end);
    EXPECT_GE(mid.end, leaf.end);
    EXPECT_EQ(mid.parentSpanId, front.spanId);
    EXPECT_EQ(leaf.parentSpanId, mid.spanId);
}

TEST_F(AppTest, TracingOffKeepsStoreEmpty)
{
    world_.app.reset();
    // Rebuild a world with tracing disabled.
    apps::WorldConfig c = makeConfig();
    c.appConfig.tracing = false;
    apps::World w2(c);
    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(1000.0));
    w2.app->addService(std::move(front)).addInstance(w2.worker(0));
    w2.app->setEntry("front");
    w2.app->addQueryType({"q", 1.0, 1.0, 0, {}});
    w2.app->inject(0, 1);
    w2.ctx.run();
    EXPECT_EQ(w2.app->traceStore().size(), 0u);
    EXPECT_EQ(w2.app->completed(), 1u);
}

TEST_F(AppTest, TaggedStagesOnlyRunForMatchingQueries)
{
    App &app = *world_.app;
    ServiceDef extra;
    extra.name = "extra";
    extra.handler.compute(Dist::constant(1000.0));
    app.addService(std::move(extra)).addInstance(world_.worker(1));

    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(1000.0))
        .callTagged("special", "extra");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    const unsigned plain = app.addQueryType({"plain", 1, 1.0, 0, {}});
    const unsigned special =
        app.addQueryType({"special", 1, 1.0, 0, {"special"}});
    app.validate();

    app.inject(plain, 1);
    world_.ctx.run();
    EXPECT_EQ(app.service("extra").instances()[0]->served(), 0u);
    app.inject(special, 1);
    world_.ctx.run();
    EXPECT_EQ(app.service("extra").instances()[0]->served(), 1u);
}

TEST_F(AppTest, ComputeScaleStretchesLatency)
{
    App &app = *world_.app;
    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(1000000.0)); // ~0.7ms
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    const unsigned small = app.addQueryType({"small", 1, 1.0, 0, {}});
    const unsigned big = app.addQueryType({"big", 1, 4.0, 0, {}});
    app.validate();

    Tick lat_small = 0, lat_big = 0;
    app.inject(small, 1, [&](const Request &r) { lat_small = r.latency(); });
    world_.ctx.run();
    app.inject(big, 1, [&](const Request &r) { lat_big = r.latency(); });
    world_.ctx.run();
    EXPECT_GT(lat_big, 2 * lat_small);
}

TEST_F(AppTest, CacheMissesHitDatabase)
{
    App &app = *world_.app;
    ServiceDef db;
    db.name = "db";
    db.kind = ServiceKind::Database;
    db.handler.compute(Dist::constant(1000.0));
    app.addService(std::move(db)).addInstance(world_.worker(2));
    ServiceDef cache;
    cache.name = "cache";
    cache.kind = ServiceKind::Cache;
    cache.handler.compute(Dist::constant(500.0));
    app.addService(std::move(cache)).addInstance(world_.worker(1));
    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(500.0)).cache("cache", "db", 0.8);
    front.threadsPerInstance = 64;
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();

    const int n = 2000;
    for (int i = 0; i < n; ++i)
        app.inject(0, static_cast<std::uint64_t>(i));
    world_.ctx.run();
    const auto cache_served =
        app.service("cache").instances()[0]->served();
    const auto db_served = app.service("db").instances()[0]->served();
    EXPECT_EQ(cache_served, static_cast<std::uint64_t>(n));
    EXPECT_NEAR(static_cast<double>(db_served), 0.2 * n, 0.03 * n);
}

TEST_F(AppTest, ProbabilisticStageFrequency)
{
    App &app = *world_.app;
    ServiceDef maybe;
    maybe.name = "maybe";
    maybe.handler.compute(Dist::constant(500.0));
    app.addService(std::move(maybe)).addInstance(world_.worker(1));
    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(500.0))
        .callWithProbability("maybe", 0.3);
    front.threadsPerInstance = 64;
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        app.inject(0, 1);
    world_.ctx.run();
    const double frac =
        static_cast<double>(app.service("maybe").instances()[0]->served()) /
        n;
    EXPECT_NEAR(frac, 0.3, 0.03);
}

TEST_F(AppTest, QueueOverflowDropsRequests)
{
    App &app = *world_.app;
    ServiceDef front;
    front.name = "front";
    front.handler.compute(Dist::constant(100000000.0)); // ~70ms each
    front.threadsPerInstance = 1;
    front.queueCapacity = 4;
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1, 1.0, 0, {}});
    app.validate();
    for (int i = 0; i < 50; ++i)
        app.inject(0, 1);
    world_.ctx.run();
    EXPECT_GT(app.droppedRequests(), 0u);
    EXPECT_EQ(app.droppedRequests() + app.completed(), 50u);
    EXPECT_GT(app.service("front").totalDropped(), 0u);
}

TEST_F(AppTest, CallerTierIsChargedForEveryKernelStep)
{
    // front -> backend. Per request the front tier runs four kernel
    // steps: it receives the client's request, sends its call,
    // receives the backend's reply and sends its own reply. Each one
    // must be charged to it in kernel mode (Fig 14), at the cycles the
    // protocol and TCP models give for that leg's payload.
    App &app = *world_.app;
    ServiceDef backend;
    backend.name = "backend";
    backend.protocol = rpc::ProtocolModel::grpc();
    backend.handler.compute(Dist::constant(50000.0));
    app.addService(std::move(backend)).addInstance(world_.worker(1));
    ServiceDef front;
    front.name = "front";
    front.kind = ServiceKind::Frontend;
    front.handler.compute(Dist::constant(40000.0)).call("backend");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1.0, 1.0, 0, {}});
    app.validate();

    const unsigned requests = 5;
    for (unsigned i = 0; i < requests; ++i)
        app.inject(0, i);
    world_.ctx.run();
    ASSERT_EQ(app.completed(), requests);

    const net::TcpCostModel &tcp = app.config().tcp;
    const ServiceDef &f = app.service("front").def();
    const ServiceDef &b = app.service("backend").def();
    const auto recv = [&tcp](const rpc::ProtocolModel &p, Bytes payload) {
        return p.deserializeCost(payload) +
               tcp.recvCost(p.wireSize(payload));
    };
    const auto send = [&tcp](const rpc::ProtocolModel &p, Bytes payload) {
        return p.serializeCost(payload) + tcp.sendCost(p.wireSize(payload));
    };
    const Cycles per_request =
        recv(f.protocol, app.config().clientRequestBytes) +
        send(b.protocol, b.defaultRequestBytes) +
        recv(b.protocol, b.defaultResponseBytes) +
        send(f.protocol, app.config().clientResponseBytes);
    EXPECT_EQ(app.service("front").kernelCycles(),
              static_cast<double>(requests * per_request));
}

TEST_F(AppTest, ParallelFanoutFasterThanSequential)
{
    App &app = *world_.app;
    ServiceDef leaf;
    leaf.name = "leaf";
    leaf.handler.compute(Dist::constant(2000000.0)); // ~1.4ms
    leaf.threadsPerInstance = 16;
    app.addService(std::move(leaf)).addInstance(world_.worker(1));
    ServiceDef par;
    par.name = "par";
    par.handler.parallelCall("leaf", 4);
    app.addService(std::move(par)).addInstance(world_.worker(0));
    ServiceDef seq;
    seq.name = "seq";
    seq.handler.call("leaf", 4);
    app.addService(std::move(seq)).addInstance(world_.worker(2));
    ServiceDef front;
    front.name = "front";
    front.handler.callTagged("par", "par").callTagged("seq", "seq");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    const unsigned qpar = app.addQueryType({"par", 1, 1.0, 0, {"par"}});
    const unsigned qseq = app.addQueryType({"seq", 1, 1.0, 0, {"seq"}});
    app.validate();

    Tick lat_par = 0, lat_seq = 0;
    app.inject(qpar, 1, [&](const Request &r) { lat_par = r.latency(); });
    world_.ctx.run();
    app.inject(qseq, 1, [&](const Request &r) { lat_seq = r.latency(); });
    world_.ctx.run();
    EXPECT_LT(lat_par, lat_seq);
    EXPECT_GT(lat_seq, 2 * lat_par / 2); // sanity
    EXPECT_LT(lat_par * 2, lat_seq);     // ~4x vs ~1x leaf time
}

TEST_F(AppTest, MediaPayloadOnlyOnFlaggedEdges)
{
    App &app = *world_.app;
    ServiceDef plain;
    plain.name = "plain";
    plain.handler.compute(Dist::constant(500.0));
    app.addService(std::move(plain)).addInstance(world_.worker(1));
    ServiceDef media;
    media.name = "media";
    media.handler.compute(Dist::constant(500.0));
    app.addService(std::move(media)).addInstance(world_.worker(2));
    ServiceDef front;
    front.name = "front";
    front.handler.call("plain").callWithMedia("media");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1, 1.0, 4 * kMiB, {}});
    app.validate();

    app.inject(0, 1);
    world_.ctx.run();
    // 4MiB at 10Gbps is ~3.3ms of serialization on the media edge; the
    // plain edge must stay microseconds. Compare span network shares.
    const auto &store = app.traceStore();
    Tick plain_net = 0, media_net = 0;
    for (const auto &s : store.spans()) {
        if (s.service == store.serviceId("front")) {
            // front's span includes both downstream transfers
            continue;
        }
        if (s.service == store.serviceId("plain"))
            plain_net = s.networkTime;
        if (s.service == store.serviceId("media"))
            media_net = s.networkTime;
    }
    EXPECT_LT(plain_net, 200 * kTicksPerUs);
    EXPECT_GT(media_net, 200 * kTicksPerUs);
}

TEST_F(AppTest, FpgaOffloadCutsNetworkTime)
{
    buildChain();
    Request native;
    world_.app->inject(0, 7, [&](const Request &r) { native = r; });
    world_.ctx.run();

    world_.app->setFpga(net::FpgaOffloadModel::on());
    Request offloaded;
    world_.app->inject(0, 7, [&](const Request &r) { offloaded = r; });
    world_.ctx.run();
    // Kernel TCP work disappears; Thrift marshalling stays on the
    // host, so the reduction is large but bounded.
    EXPECT_LT(offloaded.networkTime, native.networkTime / 2);
    EXPECT_LT(offloaded.latency(), native.latency());
}

TEST_F(AppTest, StatResetClearsMeasurements)
{
    buildChain();
    world_.app->inject(0, 1);
    world_.ctx.run();
    EXPECT_EQ(world_.app->completed(), 1u);
    world_.app->statReset();
    EXPECT_EQ(world_.app->completed(), 0u);
    EXPECT_EQ(world_.app->endToEndLatency().count(), 0u);
    EXPECT_EQ(world_.app->traceStore().size(), 0u);
}

TEST_F(AppTest, TierMeanLatencyMatchesItsSpansAndRestartsAtStatReset)
{
    // A tier keeps only the sum of its Ok reply latencies. Its mean
    // must equal the mean duration of the tier's spans in the trace
    // store (no faults, nothing evicted), which record the same values.
    buildChain(2); // two threads per tier: a burst queues
    App &app = *world_.app;
    const auto spanMean = [&app](const std::string &name) {
        const auto &idxs = app.traceStore().byService(name);
        double sum = 0.0;
        for (std::size_t i : idxs)
            sum += static_cast<double>(app.traceStore().at(i).duration());
        return sum / static_cast<double>(idxs.size());
    };
    const char *tiers[] = {"front", "mid", "leaf"};

    for (std::uint64_t user = 0; user < 50; ++user)
        app.inject(0, user);
    world_.ctx.run();
    ASSERT_EQ(app.completed(), 50u);
    ASSERT_EQ(app.traceStore().evicted(), 0u);
    for (const char *name : tiers) {
        ASSERT_EQ(app.traceStore().byService(name).size(), 50u);
        EXPECT_EQ(app.service(name).meanLatency(), spanMean(name)) << name;
    }
    const double burst = app.service("front").meanLatency();

    app.statReset();
    for (const char *name : tiers)
        EXPECT_EQ(app.service(name).meanLatency(), 0.0) << name;

    // One request alone does not queue: each restarted mean is its own
    // span's duration, and the entry tier's, where the burst queued, is
    // below the burst's.
    app.inject(0, 99);
    world_.ctx.run();
    for (const char *name : tiers) {
        ASSERT_EQ(app.traceStore().byService(name).size(), 1u);
        EXPECT_EQ(app.service(name).meanLatency(), spanMean(name)) << name;
    }
    EXPECT_LT(app.service("front").meanLatency(), burst);
}

TEST_F(AppTest, DotExportContainsGraph)
{
    buildChain();
    const std::string dot = world_.app->exportDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("\"front\" -> \"mid\""), std::string::npos);
    EXPECT_NE(dot.find("\"mid\" -> \"leaf\""), std::string::npos);
    EXPECT_NE(dot.find("client"), std::string::npos);
}

TEST_F(AppTest, ValidateCatchesMissingTarget)
{
    App &app = *world_.app;
    ServiceDef front;
    front.name = "front";
    front.handler.call("ghost");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    EXPECT_DEATH(app.validate(), "unknown");
}

TEST_F(AppTest, ValidateCatchesSelfCall)
{
    App &app = *world_.app;
    ServiceDef front;
    front.name = "front";
    front.handler.call("front");
    app.addService(std::move(front)).addInstance(world_.worker(0));
    app.setEntry("front");
    EXPECT_DEATH(app.validate(), "itself");
}

TEST_F(AppTest, DuplicateServiceNameFatal)
{
    App &app = *world_.app;
    ServiceDef a;
    a.name = "dup";
    a.handler.compute(Dist::constant(1.0));
    app.addService(a);
    EXPECT_DEATH(app.addService(a), "duplicate");
}

} // namespace
} // namespace uqsim::service
