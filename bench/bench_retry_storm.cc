/**
 * @file
 * Retry-storm / metastable-failure demonstration.
 *
 * A two-tier app (front -> backend, ~2000 rps backend capacity) runs
 * at 1200 rps with a tight 2ms attempt timeout. A 2-second x50
 * slowdown on the backend's server collapses capacity; naive retries
 * (5 attempts, no budget) quintuple demand to ~3x healthy capacity,
 * so the backend spends its whole post-trigger capacity on attempts
 * whose callers already timed out: goodput stays near zero long after
 * the trigger clears — the metastable regime. A 10% retry budget plus
 * a circuit breaker caps amplification and the same trigger recovers
 * within a second.
 *
 * Prints goodput per 500ms window for three policies: no retries,
 * naive retries, budget+breaker.
 */

#include <vector>

#include "bench_common.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

struct Windows
{
    std::vector<unsigned> good;
    std::uint64_t retries = 0;
    std::uint64_t breakerFastFails = 0;
};

Windows
runPolicy(bool retries, bool mitigated)
{
    const Tick window = 500 * kTicksPerMs;
    const Tick horizon = 8 * kTicksPerSec;

    auto world = makeWorld(2);
    service::App &app = *world->app;
    service::ServiceDef backend;
    backend.name = "backend";
    backend.handler.compute(apps::computeUsConst(1000.0));
    backend.threadsPerInstance = 2;
    app.addService(std::move(backend)).addInstance(world->worker(1));
    service::ServiceDef front;
    front.name = "front";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(apps::computeUsConst(20.0)).call("backend");
    front.threadsPerInstance = 64;
    app.addService(std::move(front)).addInstance(world->worker(0));
    app.setEntry("front");
    app.addQueryType({"q", 1.0, 1.0, 0, {}});
    app.validate();

    rpc::ResiliencePolicy &pol =
        app.service("backend").mutableDef().resilience;
    pol.timeout = 2 * kTicksPerMs;
    if (retries) {
        pol.retry.maxAttempts = 5;
        pol.retry.baseBackoff = 1 * kTicksPerMs;
    }
    if (mitigated) {
        pol.retry.budgetRatio = 0.1;
        pol.breaker.enabled = true;
    }

    fault::FaultInjector inj(app, 42);
    fault::FaultSpec slow;
    slow.kind = fault::FaultKind::Slowdown;
    slow.server = world->worker(1).id();
    slow.factor = 50.0;
    slow.start = 2 * kTicksPerSec;
    slow.duration = 2 * kTicksPerSec;
    inj.add(slow);
    inj.arm();

    Windows out;
    out.good.assign(static_cast<std::size_t>(horizon / window), 0);
    const Tick interval = static_cast<Tick>(kTicksPerSec / 1200.0);
    for (Tick t = interval; t < horizon; t += interval)
        world->ctx.scheduleAt(t, [&world, &out, window, t]() {
            world->app->inject(
                0, t / kTicksPerMs, [&out, window](const auto &r) {
                    if (r.failStatus != 0 || r.dropped)
                        return;
                    const std::size_t idx =
                        static_cast<std::size_t>(r.completeTime / window);
                    if (idx < out.good.size())
                        ++out.good[idx];
                });
        });
    world->ctx.run();
    out.retries = app.metrics().counter("rpc.retries").value();
    out.breakerFastFails =
        app.metrics().counter("rpc.breaker_fast_fails").value();
    return out;
}

} // namespace

int
main()
{
    header("Retry storm & mitigation (two-tier, 1200 rps offered)",
           "metastable failures outlive their trigger; retry budgets "
           "and breakers restore stability");

    const Windows none = runPolicy(false, false);
    const Windows naive = runPolicy(true, false);
    const Windows cured = runPolicy(true, true);

    TextTable table({"window", "t (s)", "no-retry", "naive x5",
                     "budget+breaker"});
    for (std::size_t i = 0; i < none.good.size(); ++i) {
        const double t0 = static_cast<double>(i) * 0.5;
        std::string tag = i >= 4 && i < 8 ? " <- slowdown x50" : "";
        table.add(i, fmtDouble(t0, 1) + "-" + fmtDouble(t0 + 0.5, 1),
                  none.good[i], std::to_string(naive.good[i]) + tag,
                  cured.good[i]);
    }
    table.print(std::cout);
    std::cout << "retries: naive=" << naive.retries
              << " mitigated=" << cured.retries
              << "; breaker fast-fails (mitigated)="
              << cured.breakerFastFails << "\n"
              << "Naive goodput stays collapsed after the trigger "
                 "clears at t=4s; the budgeted run returns to the "
                 "offered rate.\n";
    return 0;
}
