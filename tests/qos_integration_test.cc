/**
 * @file
 * Integration tests of server-side admission control inside full
 * application models: the opt-in contract (no qos block => the pinned
 * execution digest, bit for bit), seed determinism and thread-count
 * invariance of QoS-enabled runs, the retry interplay with the
 * client-side resilience layer, and the Fig-19 overload regression —
 * at 10x offered load a controlled deployment keeps user-facing
 * goodput near capacity while the uncontrolled FIFO collapses. The
 * same instance queue serves both modes, so the FIFO's own verdicts,
 * scale-outs and crashes are checked here too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/builder.hh"
#include "apps/scenario.hh"
#include "core/logging.hh"
#include "service/admission.hh"
#include "service/app.hh"
#include "trace/span.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

using service::App;
using service::QosConfig;
using service::Request;
using service::ServiceDef;
using service::ServiceKind;

// -- Scenario-level contract -------------------------------------------

struct RunOutcome
{
    std::uint64_t digest = 0;
    std::uint64_t completed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t refused = 0; ///< shed + throttled + overflow
};

RunOutcome
runScenario(const apps::Scenario &scn, Tick warmup, Tick measure)
{
    apps::WorldHandle w(apps::worldConfigFor(scn), scn.shards,
                        scn.threads);
    for (unsigned s = 0; s < scn.shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    apps::LoadSpec load;
    load.qps = scn.qps;
    load.warmup = warmup;
    load.measure = measure;
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    const auto r = apps::runWorld(w, load);
    RunOutcome out;
    out.digest = w.engine().executionDigest();
    out.completed = r.completed;
    for (unsigned s = 0; s < scn.shards; ++s) {
        MetricsRegistry &m = w.shard(s).app->metrics();
        for (unsigned c = 0; c < service::kQosClassCount; ++c) {
            const char *cls = service::qosClassName(
                static_cast<service::QosClass>(c));
            out.admitted +=
                m.counter(strCat("admission.admitted.", cls)).value();
            out.refused +=
                m.counter(strCat("admission.shed.", cls)).value() +
                m.counter(strCat("admission.throttled.", cls)).value() +
                m.counter(strCat("admission.overflow.", cls)).value();
        }
    }
    return out;
}

/** A qos-enabled social-network run that actually exercises refusals. */
apps::Scenario
qosScenario()
{
    apps::Scenario scn;
    scn.qps = 200.0;
    scn.qosEnabled = true;
    scn.qosQueue = 4;
    scn.qosRate = 30.0; // well under per-tier demand: throttles fire
    scn.qosBurst = 8.0;
    scn.qosBatch = "composePost-image,composePost-video";
    scn.qosBestEffort = "repost";
    return scn;
}

TEST(QosIntegrationTest, NoQosKeepsTheLegacyDigest)
{
    // The exact run `uqsim_run --app social-network --shards 1`
    // performs; the digest is pinned to the pre-admission value, so
    // any perturbation of the event stream by the (absent) admission
    // path is a test failure, not a silent behaviour change.
    const apps::Scenario scn; // all defaults; qosEnabled == false
    const RunOutcome r = runScenario(scn, secToTicks(scn.warmupSec),
                                     secToTicks(scn.durationSec));
    EXPECT_EQ(r.digest, 0x3e4c3130724e0248ull);
    EXPECT_EQ(r.completed, 3039u);
    EXPECT_EQ(r.admitted + r.refused, 0u); // no admission decisions
}

TEST(QosIntegrationTest, QosRunsAreSeedDeterministic)
{
    apps::Scenario scn = qosScenario();

    const RunOutcome a =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    const RunOutcome b =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_GT(a.admitted, 0u) << "admission path never exercised";
    EXPECT_GT(a.refused, 0u) << "nothing was ever refused";

    scn.seed = 43;
    const RunOutcome c =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_NE(c.digest, a.digest);
}

TEST(QosIntegrationTest, QosDigestIsThreadCountInvariant)
{
    apps::Scenario scn = qosScenario();
    scn.shards = 2;

    scn.threads = 1;
    const RunOutcome one =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    scn.threads = 4;
    const RunOutcome four =
        runScenario(scn, kTicksPerSec / 2, 2 * kTicksPerSec);
    EXPECT_EQ(one.digest, four.digest);
    EXPECT_EQ(one.admitted, four.admitted);
    EXPECT_EQ(one.refused, four.refused);
    EXPECT_GT(one.admitted, 0u);
}

// -- Purpose-built overload fixture ------------------------------------

/** One finished request, timestamped and classed for goodput. */
struct Outcome
{
    Tick done = 0;
    bool ok = false;
    std::uint8_t status = 0;
    unsigned query = 0;
};

/**
 * Fixture with a front tier on worker 0 calling a backend on worker 1
 * and two query types: "user" (interactive) and "batch" (bulk). The
 * backend is the bottleneck; the front tier is kept wide.
 */
class QosOverloadTest : public ::testing::Test
{
  protected:
    QosOverloadTest() { rebuild(42); }

    void
    rebuild(std::uint64_t seed)
    {
        apps::WorldConfig c;
        c.workerServers = 2;
        c.seed = seed;
        world_ = std::make_unique<apps::World>(c);
    }

    void
    buildPair(double backend_us, unsigned backend_threads,
              unsigned backend_queue = 4096)
    {
        App &app = *world_->app;
        ServiceDef backend;
        backend.name = "backend";
        backend.handler.compute(apps::computeUsConst(backend_us));
        backend.threadsPerInstance = backend_threads;
        backend.queueCapacity = backend_queue;
        app.addService(std::move(backend)).addInstance(world_->worker(1));

        ServiceDef front;
        front.name = "front";
        front.kind = ServiceKind::Frontend;
        front.handler.compute(apps::computeUsConst(20.0)).call("backend");
        front.threadsPerInstance = 64;
        app.addService(std::move(front)).addInstance(world_->worker(0));

        app.setEntry("front");
        app.addQueryType({"user", 1.0, 1.0, 0, {}});
        app.addQueryType({"batch", 1.0, 1.0, 0, {}});
        app.validate();
    }

    rpc::ResiliencePolicy &
    backendPolicy()
    {
        return world_->app->service("backend").mutableDef().resilience;
    }

    /** Open-loop arrivals of @p query at @p qps over [0, duration). */
    void
    openLoop(unsigned query, double qps, Tick duration,
             std::vector<Outcome> &out)
    {
        const Tick interval = static_cast<Tick>(kTicksPerSec / qps);
        for (Tick t = interval; t < duration; t += interval)
            world_->ctx.scheduleAt(t, [this, &out, query, t]() {
                world_->app->inject(
                    query, t / kTicksPerMs, [&out, query](const Request &r) {
                        out.push_back({r.completeTime,
                                       r.failStatus == 0 && !r.dropped,
                                       r.failStatus, query});
                    });
            });
    }

    std::uint64_t
    counter(const std::string &name)
    {
        return world_->app->metrics().counter(name).value();
    }

    service::Instance &
    backendInstance(unsigned idx)
    {
        return *world_->app->service("backend").instances()[idx];
    }

    std::unique_ptr<apps::World> world_;
};

/**
 * The Fig-19 regression this PR exists for. Backend capacity is
 * 1000 rps (1 thread x 1ms). Offered load is 10x: 900 rps of
 * user-facing traffic plus 9100 rps of batch, with a 50ms attempt
 * timeout and no retries.
 *
 * Uncontrolled, the shared FIFO backlog grows by ~9000 requests/s;
 * within tens of milliseconds every arrival waits past the timeout,
 * the backend burns all capacity on zombie work and user-facing
 * goodput collapses toward zero — the cliff.
 *
 * With admission control the batch class is refused at the door (shed
 * threshold at half the 32-deep class bound) and lopsided WRR weights
 * hand nearly every service slot to the user class, so user-facing
 * goodput stays near the offered 900 rps — graceful degradation.
 */
TEST_F(QosOverloadTest, TenXOverloadDegradesGracefullyUnderControl)
{
    const Tick horizon = 4 * kTicksPerSec;
    const Tick from = kTicksPerSec; // skip the fill-up transient

    auto run = [&](bool controlled) {
        rebuild(42);
        buildPair(/*backend_us=*/1000.0, /*threads=*/1);
        backendPolicy().timeout = 50 * kTicksPerMs;
        if (controlled) {
            QosConfig qc;
            qc.policy.weights = {100, 1, 1};
            qc.policy.classQueueCapacity = 32;
            qc.batchQueries = {"batch"};
            world_->app->enableQos(qc);
        }
        std::vector<Outcome> outcomes;
        openLoop(/*query=*/0, /*qps=*/900.0, horizon, outcomes);
        openLoop(/*query=*/1, /*qps=*/9100.0, horizon, outcomes);
        world_->ctx.run();
        unsigned user_ok = 0;
        for (const Outcome &o : outcomes)
            if (o.query == 0 && o.ok && o.done >= from &&
                o.done < horizon)
                ++user_ok;
        return user_ok;
    };

    // Backend capacity over the 3s measured window.
    const double capacity = 1000.0 * 3.0;
    const unsigned naive = run(false);
    const unsigned controlled = run(true);

    EXPECT_LT(naive, 0.3 * capacity)
        << "uncontrolled overload should collapse user-facing goodput";
    EXPECT_GT(controlled, 0.8 * capacity)
        << "admission control should preserve user-facing goodput";

    // The controlled run refused batch work at the door, cheaply:
    // shed responses, not silent drops or burned service time.
    EXPECT_GT(counter("admission.shed.batch"), 1000u);
    EXPECT_GT(counter("admission.served.user-facing"), 2000u);
    EXPECT_EQ(world_->app->droppedRequests(), 0u);
}

/**
 * Admission rejections are typed fast-fail errors, so the PR-3 client
 * resilience layer treats them like any other retryable failure: with
 * a retry policy a briefly-throttled request succeeds on a later
 * attempt instead of failing outright.
 */
TEST_F(QosOverloadTest, ThrottledRejectionsAreRetryable)
{
    buildPair(/*backend_us=*/100.0, /*threads=*/4);
    // The throttler guards every tier, including the entry tier the
    // synthetic client calls — so the retry policy must cover both
    // edges (client->front and front->backend).
    for (const char *svc : {"front", "backend"}) {
        rpc::ResiliencePolicy &pol =
            world_->app->service(svc).mutableDef().resilience;
        pol.retry.maxAttempts = 4;
        pol.retry.baseBackoff = 20 * kTicksPerMs;
        pol.retry.jitter = 0.5;
    }

    QosConfig qc;
    qc.policy.ratePerInstance = 100.0; // half the offered 200 rps
    qc.policy.burst = 4.0;
    world_->app->enableQos(qc);

    std::vector<Outcome> outcomes;
    openLoop(/*query=*/0, /*qps=*/200.0, 2 * kTicksPerSec, outcomes);
    world_->ctx.run();

    unsigned ok = 0, throttled = 0;
    for (const Outcome &o : outcomes) {
        ok += o.ok ? 1 : 0;
        if (o.status ==
            static_cast<std::uint8_t>(trace::SpanStatus::Throttled))
            ++throttled;
    }
    // The throttler refused well over half the attempts...
    EXPECT_GT(counter("admission.throttled.user-facing"), 100u);
    // ...yet retries against later bucket refills recover some of
    // them: strictly more successes than the no-retry bound, and the
    // requests that still fail carry the typed Throttled status.
    EXPECT_GT(counter("rpc.retries"), 50u);
    EXPECT_GT(ok, 150u);
    EXPECT_GT(throttled, 0u);
    EXPECT_EQ(ok + throttled, outcomes.size());
}

/**
 * Without QoS the instance queue is one FIFO that checks the tier's
 * shed length before its capacity. With both at 4 every refusal is a
 * Shed, and the queue never reaches the overflow that would drop the
 * request; without shedding the same run does overflow.
 */
TEST_F(QosOverloadTest, FifoShedsFirstWhenShedLengthEqualsCapacity)
{
    auto run = [&](unsigned shed_length) {
        rebuild(42);
        buildPair(/*backend_us=*/1000.0, /*threads=*/1,
                  /*backend_queue=*/4);
        backendPolicy().shedQueueLength = shed_length;
        std::vector<Outcome> outcomes;
        openLoop(/*query=*/0, /*qps=*/3000.0, kTicksPerSec / 2, outcomes);
        world_->ctx.run();
        return outcomes.size();
    };

    const std::size_t shed_run = run(4);
    EXPECT_GT(counter("rpc.shed"), 500u);
    EXPECT_EQ(world_->app->service("backend").totalDropped(), 0u);
    EXPECT_EQ(world_->app->droppedRequests(), 0u);

    const std::size_t drop_run = run(0);
    EXPECT_EQ(counter("rpc.shed"), 0u);
    EXPECT_GT(world_->app->droppedRequests(), 500u);
    EXPECT_EQ(shed_run, drop_run);
}

/**
 * Without QoS but under an active resilience policy, an arrival at a
 * full FIFO is refused with the typed, retryable Overflow status, not
 * silently dropped: the caller retries it, and what still fails
 * reaches the client as Overflow.
 */
TEST_F(QosOverloadTest, FifoOverflowUnderResilienceIsTypedOverflow)
{
    buildPair(/*backend_us=*/1000.0, /*threads=*/1, /*backend_queue=*/4);
    backendPolicy().retry.maxAttempts = 2;
    std::vector<Outcome> outcomes;
    openLoop(/*query=*/0, /*qps=*/3000.0, kTicksPerSec / 2, outcomes);
    world_->ctx.run();

    unsigned overflow = 0;
    for (const Outcome &o : outcomes)
        if (o.status ==
            static_cast<std::uint8_t>(trace::SpanStatus::Overflow))
            ++overflow;
    EXPECT_GT(world_->app->service("backend").totalDropped(), 1000u);
    EXPECT_GT(counter("rpc.retries"), 1000u);
    EXPECT_GT(overflow, 0u);
    EXPECT_EQ(world_->app->droppedRequests(), 0u);
    EXPECT_EQ(world_->app->failedRequests(), overflow);
}

/**
 * enableQos installs its policy into the queues that exist; an
 * instance added afterwards gets it too. Both backend instances take
 * twice the load they can serve: each refuses the excess at its class
 * bound of 4, where a FIFO would queue all of it.
 */
TEST_F(QosOverloadTest, ScaleOutAfterEnableQosIsGoverned)
{
    buildPair(/*backend_us=*/1000.0, /*threads=*/1);
    QosConfig qc;
    qc.policy.classQueueCapacity = 4;
    world_->app->enableQos(qc);
    world_->app->addInstance("backend", world_->worker(1));

    std::vector<Outcome> outcomes;
    openLoop(/*query=*/0, /*qps=*/4000.0, kTicksPerSec / 2, outcomes);
    world_->ctx.run();

    for (unsigned idx : {0u, 1u}) {
        const service::Instance &inst = backendInstance(idx);
        EXPECT_GT(inst.served(), 400u) << idx;
        EXPECT_GT(inst.dropped(), 200u) << idx;
    }
    EXPECT_EQ(counter("admission.overflow.user-facing"),
              backendInstance(0).dropped() + backendInstance(1).dropped());
}

/**
 * A crash drops the instance's QoS class backlog with its process and
 * fails the attempts that waited in it; once the run drains no frame
 * is left in use.
 */
TEST_F(QosOverloadTest, CrashClearsQosBacklogAndFramesDrain)
{
    buildPair(/*backend_us=*/1000.0, /*threads=*/1);
    QosConfig qc;
    qc.policy.classQueueCapacity = 64;
    qc.batchQueries = {"batch"};
    world_->app->enableCrashTracking();
    world_->app->enableQos(qc);

    std::vector<Outcome> outcomes;
    openLoop(/*query=*/0, /*qps=*/1500.0, kTicksPerSec / 5, outcomes);
    openLoop(/*query=*/1, /*qps=*/1500.0, kTicksPerSec / 5, outcomes);
    std::size_t before = 0, after = 0;
    const Tick crash_at = kTicksPerSec / 10;
    world_->ctx.scheduleAt(crash_at, [&]() {
        before = backendInstance(0).queueLength();
        world_->app->crashInstance("backend", 0);
        after = backendInstance(0).queueLength();
    });
    world_->ctx.scheduleAt(3 * crash_at, [&]() {
        world_->app->restartInstance("backend", 0);
    });
    world_->ctx.run();

    EXPECT_GT(before, 20u);
    EXPECT_EQ(after, 0u);
    EXPECT_GE(counter("rpc.crashed_in_flight"), before);
    EXPECT_EQ(outcomes.size(), world_->app->injected());
    EXPECT_EQ(world_->app->framesInUse(), 0);
    EXPECT_EQ(world_->app->liveRequests(), 0);
}

/**
 * The same crash with a 200 ms backend timeout, without and with QoS.
 * During the outage the front's attempts fail at once, and their
 * cancelled timeouts lie up to 200 ms past the last live event, each
 * closure holding its call: a drained run retires them, so no frame
 * is left in use.
 */
TEST_F(QosOverloadTest, CrashWithTimeoutsDrainsEveryFrame)
{
    for (const bool qos : {false, true}) {
        rebuild(42);
        buildPair(/*backend_us=*/1000.0, /*threads=*/1);
        backendPolicy().timeout = 200 * kTicksPerMs;
        world_->app->enableCrashTracking();
        if (qos) {
            QosConfig qc;
            qc.policy.classQueueCapacity = 64;
            qc.batchQueries = {"batch"};
            world_->app->enableQos(qc);
        }

        std::vector<Outcome> outcomes;
        openLoop(/*query=*/0, /*qps=*/1500.0, kTicksPerSec / 5, outcomes);
        openLoop(/*query=*/1, /*qps=*/1500.0, kTicksPerSec / 5, outcomes);
        const Tick crash_at = kTicksPerSec / 10;
        world_->ctx.scheduleAt(crash_at, [&]() {
            world_->app->crashInstance("backend", 0);
        });
        world_->ctx.scheduleAt(3 * crash_at, [&]() {
            world_->app->restartInstance("backend", 0);
        });
        world_->ctx.run();

        const char *mode = qos ? "with QoS" : "without QoS";
        EXPECT_GT(counter("rpc.crashed_in_flight"), 0u) << mode;
        EXPECT_EQ(outcomes.size(), world_->app->injected()) << mode;
        EXPECT_EQ(world_->app->framesInUse(), 0) << mode;
        EXPECT_EQ(world_->app->liveRequests(), 0) << mode;
    }
}

} // namespace
} // namespace uqsim
