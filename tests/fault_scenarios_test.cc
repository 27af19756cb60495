/**
 * @file
 * Integration tests of the fault-injection engine against the
 * client-side resilience layer, on a purpose-built two-tier app.
 *
 * Each scenario arms a FaultInjector with a small schedule and drives
 * an open load loop, then asserts on end-to-end request outcomes,
 * span/metric accounting and — for the retry-storm scenario — the
 * per-window goodput trajectory that distinguishes a metastable
 * failure from a recovering one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/builder.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "obs/pipeline.hh"
#include "service/app.hh"
#include "trace/span.hh"

namespace uqsim::fault {
namespace {

using service::App;
using service::Request;
using service::ServiceDef;
using service::ServiceKind;

/** One finished request, timestamped for windowed goodput. */
struct Outcome
{
    Tick done = 0;
    bool ok = false;
    std::uint8_t status = 0;
    std::uint32_t retries = 0;
};

/** Fixture with a front tier on worker 0 calling a backend on worker 1. */
class FaultScenarioTest : public ::testing::Test
{
  protected:
    FaultScenarioTest() { rebuild(42); }

    void
    rebuild(std::uint64_t seed)
    {
        apps::WorldConfig c;
        c.workerServers = 2;
        c.seed = seed;
        world_ = std::make_unique<apps::World>(c);
    }

    /**
     * front (worker 0) -> backend (worker 1). The backend does
     * @p backend_us of deterministic compute on @p backend_threads
     * worker threads; the front tier is kept wide so it never
     * bottlenecks.
     */
    void
    buildPair(double backend_us, unsigned backend_threads)
    {
        App &app = *world_->app;
        ServiceDef backend;
        backend.name = "backend";
        backend.handler.compute(apps::computeUsConst(backend_us));
        backend.threadsPerInstance = backend_threads;
        app.addService(std::move(backend)).addInstance(world_->worker(1));

        ServiceDef front;
        front.name = "front";
        front.kind = ServiceKind::Frontend;
        front.handler.compute(apps::computeUsConst(20.0)).call("backend");
        front.threadsPerInstance = 64;
        app.addService(std::move(front)).addInstance(world_->worker(0));

        app.setEntry("front");
        app.addQueryType({"q", 1.0, 1.0, 0, {}});
        app.validate();
    }

    /** Resilience policy governing calls *to* the backend. */
    rpc::ResiliencePolicy &
    backendPolicy()
    {
        return world_->app->service("backend").mutableDef().resilience;
    }

    /**
     * Schedule an open-loop arrival stream: one injection every
     * 1/`qps` seconds over [0, duration), recording outcomes.
     */
    void
    openLoop(double qps, Tick duration, std::vector<Outcome> &out)
    {
        const Tick interval = static_cast<Tick>(kTicksPerSec / qps);
        for (Tick t = interval; t < duration; t += interval)
            world_->ctx.scheduleAt(t, [this, &out, t]() {
                world_->app->inject(
                    0, t / kTicksPerMs, [&out](const Request &r) {
                        out.push_back({r.completeTime,
                                       r.failStatus == 0 && !r.dropped,
                                       r.failStatus, r.retries});
                    });
            });
    }

    /** Successful completions per @p width window of simulated time. */
    static std::vector<unsigned>
    goodputWindows(const std::vector<Outcome> &outcomes, Tick width,
                   Tick horizon)
    {
        std::vector<unsigned> w(static_cast<std::size_t>(horizon / width),
                                0);
        for (const Outcome &o : outcomes) {
            if (!o.ok)
                continue;
            const std::size_t idx = static_cast<std::size_t>(o.done / width);
            if (idx < w.size())
                ++w[idx];
        }
        return w;
    }

    std::uint64_t
    counter(const std::string &name)
    {
        return world_->app->metrics().counter(name).value();
    }

    std::unique_ptr<apps::World> world_;
};

// -- Crash / restart ----------------------------------------------------

TEST_F(FaultScenarioTest, CrashFailsInFlightAndRestartRecovers)
{
    buildPair(/*backend_us=*/10000.0, /*threads=*/4); // ~10ms handler
    FaultInjector inj(*world_->app, 42);
    FaultSpec crash;
    crash.kind = FaultKind::Crash;
    crash.service = "backend";
    crash.instance = 0;
    crash.start = 5 * kTicksPerMs;
    crash.duration = 20 * kTicksPerMs;
    inj.add(crash);
    inj.arm();

    // In flight when the crash fires at t=5ms (handler runs 10ms).
    Request victim, survivor;
    world_->ctx.scheduleAt(1 * kTicksPerMs, [&]() {
        world_->app->inject(0, 1, [&](const Request &r) { victim = r; });
    });
    // Injected after the restart at t=25ms; must complete normally.
    world_->ctx.scheduleAt(30 * kTicksPerMs, [&]() {
        world_->app->inject(0, 2, [&](const Request &r) { survivor = r; });
    });
    world_->ctx.run();

    EXPECT_EQ(victim.failStatus,
              static_cast<std::uint8_t>(trace::SpanStatus::Crashed));
    EXPECT_EQ(counter("rpc.crashed_in_flight"), 1u);
    EXPECT_EQ(counter("fault.crashes"), 1u);
    EXPECT_EQ(inj.crashes(), 1u);
    EXPECT_EQ(survivor.failStatus, 0);
    EXPECT_FALSE(survivor.dropped);
    EXPECT_EQ(world_->app->failedRequests(), 1u);
    EXPECT_EQ(world_->app->completed(), 1u);
}

TEST_F(FaultScenarioTest, RequestsDuringOutageFailWithoutWedgingTheApp)
{
    buildPair(/*backend_us=*/500.0, /*threads=*/8);
    FaultInjector inj(*world_->app, 42);
    FaultSpec crash;
    crash.kind = FaultKind::Crash;
    crash.service = "backend";
    crash.instance = 0;
    crash.start = 100 * kTicksPerMs;
    crash.duration = 200 * kTicksPerMs;
    inj.add(crash);
    inj.arm();

    std::vector<Outcome> outcomes;
    openLoop(/*qps=*/200.0, /*duration=*/500 * kTicksPerMs, outcomes);
    world_->ctx.run();

    // Every injection resolved: nothing hangs on a dead instance.
    ASSERT_EQ(outcomes.size(), 99u);
    unsigned during_fail = 0, after_ok = 0;
    for (const Outcome &o : outcomes) {
        if (o.done > 100 * kTicksPerMs && o.done <= 300 * kTicksPerMs)
            during_fail += o.ok ? 0 : 1;
        if (o.done > 320 * kTicksPerMs)
            after_ok += o.ok ? 1 : 0;
    }
    // The outage window fails its requests; recovery is complete.
    EXPECT_GT(during_fail, 30u);
    EXPECT_GT(after_ok, 30u);
    EXPECT_EQ(world_->app->completed() + world_->app->failedRequests(),
              99u);
}

// -- Transient error windows -------------------------------------------

TEST_F(FaultScenarioTest, ErrorWindowFailsRequestsAndMonitorSeesIt)
{
    buildPair(/*backend_us=*/200.0, /*threads=*/8);
    obs::PipelineConfig pc;
    pc.interval = 20 * kTicksPerMs;
    obs::Pipeline pipe(*world_->app, pc);
    pipe.start();
    FaultInjector inj(*world_->app, 42);
    FaultSpec err;
    err.kind = FaultKind::ErrorRate;
    err.service = "backend";
    err.rate = 1.0;
    err.start = 50 * kTicksPerMs;
    err.duration = 100 * kTicksPerMs;
    inj.add(err);
    inj.arm();

    std::vector<Outcome> outcomes;
    openLoop(/*qps=*/500.0, /*duration=*/250 * kTicksPerMs, outcomes);
    world_->ctx.run();

    unsigned in_window_fail = 0, outside_fail = 0;
    for (const Outcome &o : outcomes) {
        const bool in_window = o.done > 50 * kTicksPerMs &&
                               o.done <= 151 * kTicksPerMs;
        if (!o.ok && in_window) {
            ++in_window_fail;
            EXPECT_EQ(o.status,
                      static_cast<std::uint8_t>(trace::SpanStatus::Error));
        }
        if (!o.ok && !in_window)
            ++outside_fail;
    }
    EXPECT_GT(in_window_fail, 40u);
    EXPECT_EQ(outside_fail, 0u);
    EXPECT_EQ(inj.requestsFailed(), counter("fault.requests_failed"));
    EXPECT_GT(inj.requestsFailed(), 0u);

    // The operator's error-rate panel lights up during the window.
    const obs::Series &backend = *pipe.store().find("backend");
    double peak = 0.0;
    for (std::size_t i = 0; i < backend.size(); ++i)
        peak = std::max(peak, backend.at(i).errorRate);
    EXPECT_GT(peak, 0.9);
}

TEST_F(FaultScenarioTest, RetriesMaskTransientErrors)
{
    // 30% injected error rate over the whole run: naive callers lose
    // ~30% of requests, four attempts lose ~0.8%.
    auto run = [this](unsigned max_attempts) {
        rebuild(42);
        buildPair(/*backend_us=*/200.0, /*threads=*/16);
        if (max_attempts > 1) {
            rpc::ResiliencePolicy &pol = backendPolicy();
            pol.retry.maxAttempts = max_attempts;
            pol.retry.baseBackoff = 200 * kTicksPerUs;
            pol.retry.jitter = 0.5;
        }
        FaultInjector inj(*world_->app, 42);
        FaultSpec err;
        err.kind = FaultKind::ErrorRate;
        err.service = "backend";
        err.rate = 0.3;
        err.start = 0;
        err.duration = kTicksPerSec;
        inj.add(err);
        inj.arm();
        std::vector<Outcome> outcomes;
        openLoop(/*qps=*/1000.0, /*duration=*/800 * kTicksPerMs, outcomes);
        world_->ctx.run();
        unsigned failed = 0;
        for (const Outcome &o : outcomes)
            failed += o.ok ? 0 : 1;
        return static_cast<double>(failed) /
               static_cast<double>(outcomes.size());
    };

    const double naive = run(1);
    const double retried = run(4);
    EXPECT_NEAR(naive, 0.3, 0.06);
    EXPECT_LT(retried, 0.05);
    EXPECT_GT(counter("rpc.retries"), 100u);
}

// -- Network partitions -------------------------------------------------

TEST_F(FaultScenarioTest, PartitionTimesOutCallsAndHeals)
{
    buildPair(/*backend_us=*/200.0, /*threads=*/8);
    rpc::ResiliencePolicy &pol = backendPolicy();
    pol.timeout = 5 * kTicksPerMs;

    FaultInjector inj(*world_->app, 42);
    FaultSpec part;
    part.kind = FaultKind::Partition;
    part.groupA = {world_->worker(0).id(), world_->worker(0).id()};
    part.groupB = {world_->worker(1).id(), world_->worker(1).id()};
    part.loss = 1.0;
    part.start = 50 * kTicksPerMs;
    part.duration = 100 * kTicksPerMs;
    inj.add(part);
    inj.arm();

    std::vector<Outcome> outcomes;
    openLoop(/*qps=*/200.0, /*duration=*/300 * kTicksPerMs, outcomes);
    world_->ctx.run();

    ASSERT_EQ(outcomes.size(), 59u);
    unsigned timed_out = 0, late_ok = 0;
    for (const Outcome &o : outcomes) {
        if (o.status ==
            static_cast<std::uint8_t>(trace::SpanStatus::Timeout))
            ++timed_out;
        if (o.ok && o.done > 160 * kTicksPerMs)
            ++late_ok;
    }
    EXPECT_GT(timed_out, 15u);
    EXPECT_GT(late_ok, 20u);
    EXPECT_GT(world_->network->messagesDropped(), 0u);
    EXPECT_EQ(world_->network->messagesDropped(), inj.messagesDropped());
    EXPECT_GT(counter("rpc.timeouts"), 0u);
}

// -- Load shedding ------------------------------------------------------

TEST_F(FaultScenarioTest, ShedRefusesArrivalsAboveQueueDepth)
{
    buildPair(/*backend_us=*/5000.0, /*threads=*/1); // 5ms, one thread
    backendPolicy().shedQueueLength = 3;

    std::vector<Outcome> outcomes;
    // 10 arrivals within 1ms: one in service, three queued, the rest
    // refused with a retryable shed error instead of a silent drop.
    for (int i = 0; i < 10; ++i)
        world_->ctx.scheduleAt(100 * kTicksPerUs * (i + 1), [this,
                                                            &outcomes]() {
            world_->app->inject(0, 1, [&outcomes](const Request &r) {
                outcomes.push_back({r.completeTime,
                                    r.failStatus == 0 && !r.dropped,
                                    r.failStatus, r.retries});
            });
        });
    world_->ctx.run();

    ASSERT_EQ(outcomes.size(), 10u);
    unsigned ok = 0, shed = 0;
    for (const Outcome &o : outcomes) {
        ok += o.ok ? 1 : 0;
        if (o.status == static_cast<std::uint8_t>(trace::SpanStatus::Shed))
            ++shed;
    }
    EXPECT_EQ(ok, 4u);   // the served one + the three queued
    EXPECT_EQ(shed, 6u); // everything beyond the shed threshold
    EXPECT_EQ(counter("rpc.shed"), 6u);
    EXPECT_EQ(world_->app->droppedRequests(), 0u); // shed != drop
}

// -- Determinism --------------------------------------------------------

TEST_F(FaultScenarioTest, FaultScheduleIsDeterministic)
{
    auto run = [this](std::uint64_t seed) {
        rebuild(seed);
        buildPair(/*backend_us=*/300.0, /*threads=*/4);
        rpc::ResiliencePolicy &pol = backendPolicy();
        pol.timeout = 5 * kTicksPerMs;
        pol.retry.maxAttempts = 3;
        pol.retry.budgetRatio = 0.2;
        pol.breaker.enabled = true;
        FaultInjector inj(*world_->app, seed);
        FaultSpec err;
        err.kind = FaultKind::ErrorRate;
        err.service = "backend";
        err.rate = 0.5;
        err.start = 20 * kTicksPerMs;
        err.duration = 60 * kTicksPerMs;
        inj.add(err);
        FaultSpec crash;
        crash.kind = FaultKind::Crash;
        crash.service = "backend";
        crash.instance = 0;
        crash.start = 100 * kTicksPerMs;
        crash.duration = 30 * kTicksPerMs;
        inj.add(crash);
        inj.arm();
        std::vector<Outcome> outcomes;
        openLoop(/*qps=*/400.0, /*duration=*/200 * kTicksPerMs, outcomes);
        world_->ctx.run();
        return world_->ctx.executionDigest();
    };

    const std::uint64_t a = run(7);
    const std::uint64_t b = run(7);
    const std::uint64_t c = run(8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST_F(FaultScenarioTest, ArmedEmptyScheduleKeepsLegacyDigest)
{
    auto run = [this](bool with_injector) {
        rebuild(42);
        buildPair(/*backend_us=*/300.0, /*threads=*/4);
        std::unique_ptr<FaultInjector> inj;
        if (with_injector) {
            inj = std::make_unique<FaultInjector>(*world_->app, 42);
            inj->arm();
        }
        std::vector<Outcome> outcomes;
        openLoop(/*qps=*/400.0, /*duration=*/100 * kTicksPerMs, outcomes);
        world_->ctx.run();
        return world_->ctx.executionDigest();
    };

    EXPECT_EQ(run(false), run(true));
}

// -- Retry storm & mitigation ------------------------------------------

/**
 * The metastable-failure scenario the resilience layer exists for.
 *
 * Backend capacity is ~2000 rps (2 threads x 1ms). Offered load is
 * 1200 rps with a tight 2ms attempt timeout and 5 attempts per
 * request. A 2s slowdown window (x50 service time) collapses capacity
 * to ~40 rps; every attempt times out and naive retries quintuple
 * demand to ~6000 attempts/s — 3x healthy capacity. Once queue
 * wait exceeds ~1ms, served attempts finish after their callers gave
 * up, so the backend burns its whole capacity on zombie work and the
 * overload outlives the trigger: goodput stays near zero long after
 * the slowdown ends.
 *
 * A 10% retry budget caps retry amplification at 1.1x (~660
 * attempts/s < capacity), so the same trigger drains and goodput
 * returns to the offered rate.
 */
TEST_F(FaultScenarioTest, RetryStormPersistsAndBudgetCuresIt)
{
    const Tick window = 500 * kTicksPerMs;
    const Tick horizon = 8 * kTicksPerSec;

    auto run = [&](bool mitigated) {
        rebuild(42);
        buildPair(/*backend_us=*/1000.0, /*threads=*/2);
        rpc::ResiliencePolicy &pol = backendPolicy();
        // Tight timeout: barely 2x the healthy service time. Once queue
        // wait exceeds ~1ms every served attempt completes after its
        // caller gave up — capacity burned on zombie work, the
        // metastable mechanism.
        pol.timeout = 2 * kTicksPerMs;
        pol.retry.maxAttempts = 5;
        pol.retry.baseBackoff = 1 * kTicksPerMs;
        pol.retry.jitter = 0.5;
        if (mitigated) {
            pol.retry.budgetRatio = 0.1;
            pol.breaker.enabled = true;
        }
        FaultInjector inj(*world_->app, 42);
        FaultSpec slow;
        slow.kind = FaultKind::Slowdown;
        slow.server = world_->worker(1).id();
        slow.factor = 50.0;
        slow.start = 2 * kTicksPerSec;
        slow.duration = 2 * kTicksPerSec;
        inj.add(slow);
        inj.arm();
        std::vector<Outcome> outcomes;
        openLoop(/*qps=*/1200.0, horizon, outcomes);
        world_->ctx.run();
        return goodputWindows(outcomes, window, horizon);
    };

    const std::vector<unsigned> naive = run(false);
    const std::vector<unsigned> cured = run(true);
    auto dump = [](const char *tag, const std::vector<unsigned> &w) {
        std::cerr << tag << ":";
        for (unsigned v : w)
            std::cerr << ' ' << v;
        std::cerr << '\n';
    };
    dump("naive", naive);
    dump("cured", cured);
    ASSERT_EQ(naive.size(), 16u);
    ASSERT_EQ(cured.size(), 16u);

    // Healthy before the trigger (~600 successes per 500ms window).
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_GT(naive[i], 500u) << "window " << i;
        EXPECT_GT(cured[i], 500u) << "window " << i;
    }
    // The slowdown ends at t=4s. Naive retries keep the backend
    // saturated with doomed attempts: goodput never recovers.
    unsigned naive_tail = 0, cured_tail = 0;
    for (std::size_t i = 12; i < 16; ++i) {
        naive_tail += naive[i];
        cured_tail += cured[i];
    }
    EXPECT_LT(naive_tail, 400u) << "storm should persist past the trigger";
    EXPECT_GT(cured_tail, 1000u) << "budget+breaker should restore goodput";
    EXPECT_GT(cured_tail, 4 * naive_tail);
    // The mitigated run spends its budget and trips the breaker.
    EXPECT_GT(counter("rpc.retry_budget_exhausted"), 0u);
}

} // namespace
} // namespace uqsim::fault
