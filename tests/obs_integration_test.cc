/**
 * @file
 * Integration tests of the telemetry pipeline inside full application
 * models: the opt-in contract (no telemetry => the pinned execution
 * digest — and, stronger, *enabled* telemetry keeps the same digest,
 * bit for bit), seed determinism and thread-count invariance of the
 * exported series, the sketch-vs-exact percentile contract on a live
 * request stream, the Perfetto counter-track export, the scenario
 * `slo:` block round-trip, and the series' in-flight column.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/builder.hh"
#include "apps/scenario.hh"
#include "core/json.hh"
#include "core/quantile_sketch.hh"
#include "obs/export.hh"
#include "obs/pipeline.hh"
#include "trace/export.hh"
#include "workload/generators.hh"
#include "workload/user_population.hh"

namespace uqsim {
namespace {

// -- Scenario-level contract -------------------------------------------

struct ObsRun
{
    std::uint64_t digest = 0;
    std::uint64_t completed = 0;
    /** Shard-0 exports (empty when observability is off). */
    std::string json;
    std::string csv;
    std::uint64_t intervals = 0;
    unsigned pipelines = 0;
};

ObsRun
runScenario(const apps::Scenario &scn, Tick warmup, Tick measure)
{
    apps::WorldHandle w(apps::worldConfigFor(scn), scn.shards,
                        scn.threads);
    // Declared after the world: destroyed first, while the tapped
    // apps are still alive (the uqsim_run layering).
    std::vector<std::unique_ptr<obs::Pipeline>> pipes;
    for (unsigned s = 0; s < scn.shards; ++s) {
        apps::buildScenarioApp(w.shard(s), scn);
        if (auto p = apps::attachObservability(w.shard(s), scn))
            pipes.push_back(std::move(p));
    }
    apps::LoadSpec load;
    load.qps = scn.qps;
    load.warmup = warmup;
    load.measure = measure;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, load);
    ObsRun out;
    out.digest = w.engine().executionDigest();
    out.completed = r.completed;
    out.pipelines = static_cast<unsigned>(pipes.size());
    if (!pipes.empty()) {
        out.json = obs::toTimeSeriesJson(pipes.front()->store());
        out.csv = obs::toTimeSeriesCsv(pipes.front()->store());
        out.intervals = pipes.front()->store().intervalsSampled();
    }
    return out;
}

TEST(ObsIntegrationTest, DisabledTelemetryKeepsThePinnedDigest)
{
    // The exact run `uqsim_run --app social-network --shards 1`
    // performs, with no obs/slo configuration: attachObservability
    // must return null and the digest must stay at the pinned value.
    const apps::Scenario scn;
    const ObsRun r = runScenario(scn, secToTicks(scn.warmupSec),
                                 secToTicks(scn.durationSec));
    EXPECT_EQ(r.pipelines, 0u);
    EXPECT_EQ(r.digest, 0x3e4c3130724e0248ull);
    EXPECT_EQ(r.completed, 3039u);
}

TEST(ObsIntegrationTest, EnabledTelemetryKeepsThePinnedDigestToo)
{
    // The stronger half of the contract: the pipeline runs between
    // events and never schedules, so even *enabled* telemetry leaves
    // the event stream bit-identical to the pinned seed digest.
    apps::Scenario scn;
    scn.obsEnabled = true;
    scn.sloLatency = 5 * kTicksPerMs;
    const ObsRun r = runScenario(scn, secToTicks(scn.warmupSec),
                                 secToTicks(scn.durationSec));
    EXPECT_EQ(r.pipelines, 1u);
    EXPECT_EQ(r.digest, 0x3e4c3130724e0248ull);
    EXPECT_EQ(r.completed, 3039u);
    EXPECT_GT(r.intervals, 0u);
    EXPECT_NE(r.json.find("\"e2e\""), std::string::npos);
}

TEST(ObsIntegrationTest, SeriesAreSeedDeterministicAndThreadInvariant)
{
    apps::Scenario scn;
    scn.obsEnabled = true;
    scn.sloLatency = 5 * kTicksPerMs;
    scn.shards = 2;

    scn.threads = 1;
    const ObsRun a =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    const ObsRun b =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.json, b.json) << "series must be seed-deterministic";
    EXPECT_EQ(a.csv, b.csv);

    scn.threads = 4;
    const ObsRun c =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(a.digest, c.digest);
    EXPECT_EQ(a.json, c.json)
        << "series must be invariant under the worker-thread count";
    EXPECT_EQ(a.csv, c.csv);
}

// -- Sketch vs exact on a live stream ----------------------------------

/**
 * An ObsTap that records the exact end-to-end completions (with
 * timestamps) and forwards every signal to the real pipeline, so the
 * sketch-backed series and the exact stream describe the same run.
 */
class ForwardTap : public service::ObsTap
{
  public:
    ForwardTap(service::App &app, obs::Pipeline &inner)
        : app_(app), inner_(inner)
    {
        app.setObsTap(this); // after inner.start(): override the tap
    }

    void
    onTierLatency(const service::Microservice &svc,
                  Tick latency) override
    {
        inner_.onTierLatency(svc, latency);
    }

    void
    onEndToEnd(Tick latency, bool ok) override
    {
        if (ok)
            e2e.emplace_back(app_.ctx().now(), latency);
        inner_.onEndToEnd(latency, ok);
    }

    void
    onAdmissionReject(const service::Microservice &svc) override
    {
        inner_.onAdmissionReject(svc);
    }

    std::vector<std::pair<Tick, Tick>> e2e; ///< (completion, latency)

  private:
    service::App &app_;
    obs::Pipeline &inner_;
};

/** Exact order statistic with the sketch's rank convention. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size()) + 0.5;
    std::uint64_t rank = static_cast<std::uint64_t>(pos);
    rank = std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                          rank, values.size()));
    return values[rank - 1];
}

TEST(ObsIntegrationTest, IntervalPercentilesTrackExactWithinBound)
{
    apps::WorldConfig c;
    c.workerServers = 2;
    apps::World w(c);
    service::App &app = *w.app;

    service::ServiceDef back;
    back.name = "backend";
    back.handler.compute(Dist::lognormalMean(150.0 * 1440.0, 0.5));
    back.threadsPerInstance = 8;
    app.addService(std::move(back)).addInstance(w.worker(1));
    service::ServiceDef front;
    front.name = "frontend";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::lognormalMean(60.0 * 1440.0, 0.4))
        .call("backend");
    front.threadsPerInstance = 8;
    app.addService(std::move(front)).addInstance(w.worker(0));
    app.setEntry("frontend");
    app.addQueryType({"read", 1, 1.0, 0, {}});
    app.validate();

    obs::PipelineConfig pc;
    pc.interval = 100 * kTicksPerMs;
    obs::Pipeline pipe(app, pc);
    pipe.start();
    ForwardTap tap(app, pipe); // installed over the pipeline's tap

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(50), 1);
    gen.setQps(800.0);
    gen.start();
    w.ctx.runUntil(2 * kTicksPerSec);

    const obs::Series *e2e = pipe.store().find(obs::kEndToEndSeries);
    ASSERT_NE(e2e, nullptr);
    const double bound = QuantileSketch::relativeErrorBound();
    ASSERT_LE(bound, 0.02);

    unsigned compared = 0;
    for (std::size_t i = 0; i < e2e->size(); ++i) {
        const obs::IntervalSample &row = e2e->at(i);
        // The exact completions of this interval: a boundary B closes
        // everything that finished in [B - interval, B).
        std::vector<std::uint64_t> exact;
        for (const auto &done : tap.e2e)
            if (done.first >= row.start && done.first < row.end)
                exact.push_back(done.second);
        ASSERT_EQ(exact.size(), row.count)
            << "interval [" << row.start << ", " << row.end << ")";
        if (exact.empty())
            continue;
        ++compared;
        for (const auto &probe :
             {std::make_pair(0.50, row.p50),
              std::make_pair(0.95, row.p95),
              std::make_pair(0.99, row.p99)}) {
            const std::uint64_t ex = exactQuantile(exact, probe.first);
            EXPECT_GE(probe.second, ex) << "q=" << probe.first;
            EXPECT_LE(static_cast<double>(probe.second),
                      static_cast<double>(ex) * (1.0 + bound) + 1.0)
                << "q=" << probe.first << " interval " << i;
        }
    }
    EXPECT_GE(compared, 15u) << "too few populated intervals";
}

// -- Perfetto counter tracks -------------------------------------------

TEST(ObsIntegrationTest, PerfettoExportGainsCounterTracks)
{
    apps::WorldConfig c;
    c.workerServers = 2;
    c.appConfig.tracing = true;
    apps::World w(c);
    service::App &app = *w.app;
    service::ServiceDef back;
    back.name = "backend";
    back.handler.compute(Dist::constant(100.0 * 1440.0));
    back.threadsPerInstance = 8;
    app.addService(std::move(back)).addInstance(w.worker(1));
    service::ServiceDef front;
    front.name = "frontend";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::constant(50.0 * 1440.0))
        .call("backend");
    front.threadsPerInstance = 8;
    app.addService(std::move(front)).addInstance(w.worker(0));
    app.setEntry("frontend");
    app.addQueryType({"read", 1, 1.0, 0, {}});
    app.validate();

    obs::PipelineConfig pc;
    pc.interval = 100 * kTicksPerMs;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(50), 1);
    gen.setQps(300.0);
    gen.start();
    w.ctx.runUntil(kTicksPerSec);

    const std::string frag = obs::perfettoCounterEvents(pipe.store());
    ASSERT_FALSE(frag.empty());
    EXPECT_NE(frag.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(frag.find("latency_ns"), std::string::npos);
    EXPECT_EQ(frag.find("[,"), std::string::npos);
    EXPECT_NE(frag.back(), ','); // a splice-ready fragment

    // Spliced into the span export, the whole document stays valid
    // JSON with the counter tracks on the observability process.
    std::ostringstream os;
    trace::exportPerfettoJson(app.traceStore(), os, 0, frag);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("observability"), std::string::npos);
    std::string error;
    json::Value parsed;
    ASSERT_TRUE(json::parse(doc, parsed, error)) << error;
}

// -- Scenario round-trip (the `slo:` block) ----------------------------

TEST(ObsIntegrationTest, ScenarioSloBlockRoundTripsByteStable)
{
    apps::Scenario s;
    s.obsEnabled = true;
    s.obsInterval = 250 * kTicksPerMs;
    s.obsRing = 512;
    s.sloLatency = 25 * kTicksPerMs;
    s.sloQuantile = 0.95;
    s.sloWindow = 5;
    s.sloErrorRate = 0.05;
    s.sloTier = "nginx-lb";

    const std::string text = apps::scenarioToJson(s);
    apps::Scenario parsed;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(text, parsed, error)) << error;
    EXPECT_TRUE(parsed.obsEnabled);
    EXPECT_EQ(parsed.obsInterval, 250 * kTicksPerMs);
    EXPECT_EQ(parsed.obsRing, 512u);
    EXPECT_EQ(parsed.sloLatency, 25 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(parsed.sloQuantile, 0.95);
    EXPECT_EQ(parsed.sloWindow, 5u);
    EXPECT_DOUBLE_EQ(parsed.sloErrorRate, 0.05);
    EXPECT_EQ(parsed.sloTier, "nginx-lb");
    EXPECT_EQ(apps::scenarioToJson(parsed), text)
        << "dump -> parse -> dump must be byte-stable";

    // The derived pipeline config mirrors the scenario fields.
    const obs::PipelineConfig pc = apps::obsConfigFor(parsed);
    EXPECT_EQ(pc.interval, 250 * kTicksPerMs);
    EXPECT_EQ(pc.ring, 512u);
    EXPECT_EQ(pc.slo.latency, 25 * kTicksPerMs);
    EXPECT_EQ(pc.slo.tier, "nginx-lb");

    // An unknown key inside the block is rejected, like any other.
    apps::Scenario out;
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"slo\": {\"latency\": \"10ms\", \"typo\": 1}}", out, error));
    EXPECT_NE(error.find("slo.typo"), std::string::npos);
}

// -- In-flight column ----------------------------------------------------

TEST(ObsIntegrationTest, MonitorPublishesInFlightGauge)
{
    apps::WorldConfig c;
    c.workerServers = 2;
    apps::World w(c);
    service::App &app = *w.app;
    service::ServiceDef back;
    back.name = "backend";
    // Slow enough that requests are reliably in flight at boundaries.
    back.handler.compute(Dist::constant(4000.0 * 1440.0));
    back.threadsPerInstance = 8;
    app.addService(std::move(back)).addInstance(w.worker(1));
    service::ServiceDef front;
    front.name = "frontend";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::constant(50.0 * 1440.0))
        .call("backend");
    front.threadsPerInstance = 16;
    app.addService(std::move(front)).addInstance(w.worker(0));
    app.setEntry("frontend");
    app.addQueryType({"read", 1, 1.0, 0, {}});
    app.validate();

    obs::PipelineConfig pc;
    pc.interval = 100 * kTicksPerMs;
    obs::Pipeline pipe(app, pc);
    pipe.start();
    workload::OpenLoopGenerator gen(
        app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(50), 1);
    gen.setQps(1000.0);
    gen.start();
    w.ctx.runUntil(kTicksPerSec);

    // The backend holds requests at every boundary; the frontend's are
    // parked on it, so it shows them in flight too.
    EXPECT_GT(pipe.store().find("backend")->latest().inFlight, 0.0);
    EXPECT_GT(pipe.store().find("frontend")->latest().inFlight, 0.0);
}

} // namespace
} // namespace uqsim
