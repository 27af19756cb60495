/**
 * @file
 * Fig 17: backpressure in a two-tier (nginx -> memcached) service.
 *
 * Case A: the client overloads nginx itself; a utilization-based
 * autoscaler detects the hotspot and scaling out nginx restores QoS.
 *
 * Case B: memcached is slightly degraded and HTTP/1 allows only one
 * outstanding request per connection, so nginx's worker threads park
 * on the connection pool. nginx *appears* saturated (full occupancy),
 * the autoscaler scales nginx out - and latency does not recover,
 * because admitting more traffic feeds the real bottleneck.
 */

#include "bench_common.hh"
#include "apps/profiles.hh"
#include "manager/autoscaler.hh"
#include "obs/culprit.hh"
#include "obs/pipeline.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

void
runCase(bool degraded_backend, double qps, const char *label)
{
    auto w = makeWorld(4);
    service::App &app = *w->app;

    service::ServiceDef mc;
    mc.name = "memcached";
    mc.kind = service::ServiceKind::Cache;
    mc.handler.compute(Dist::lognormalMean(80.0 * 1440.0, 0.4));
    mc.profile = apps::memcachedProfile();
    // Case B: the instance lost most of its worker threads (e.g. a
    // bad config push); the runtime slowdown below then caps it at
    // ~600 op/s behind 4 HTTP/1 connections.
    mc.threadsPerInstance = degraded_backend ? 2 : 16;
    mc.protocol = rpc::ProtocolModel::restHttp1();
    mc.protocol.connectionsPerPair = 4;
    app.addService(std::move(mc)).addInstance(w->worker(1));

    service::ServiceDef nginx;
    nginx.name = "nginx";
    nginx.kind = service::ServiceKind::Frontend;
    nginx.profile = apps::nginxProfile();
    nginx.handler.compute(Dist::lognormalMean(300.0 * 1440.0, 0.4))
        .call("memcached");
    nginx.threadsPerInstance = 24;
    nginx.protocol = rpc::ProtocolModel::restHttp1();
    nginx.protocol.connectionsPerPair = 256;
    app.addService(std::move(nginx)).addInstance(w->worker(0));

    app.setEntry("nginx");
    app.addQueryType({"read", 1, 1.0, 0, {}});
    app.setQosLatency(5 * kTicksPerMs);
    app.validate();

    // Per-tier interval series plus an SLO monitor on the end-to-end
    // stream: the same 5ms QoS target the autoscaler chases, evaluated
    // per interval, so the localizer can name the tier that degraded
    // first in each case.
    obs::PipelineConfig pc;
    pc.interval = secToTicks(1.0);
    pc.ring = 128;
    pc.slo.latency = 5 * kTicksPerMs;
    pc.slo.window = 3;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    manager::AutoScaler::Config cfg;
    cfg.threshold = 0.7;
    cfg.interval = secToTicks(1.0);
    cfg.startupDelay = secToTicks(3.0);
    cfg.cooldown = secToTicks(10.0);
    manager::AutoScaler scaler(app, cfg, [&]() -> cpu::Server & {
        return w->nextWorker();
    });
    scaler.watch("nginx");
    // Let the arrival process settle before the first decision.
    w->ctx.schedule(secToTicks(4.0), [&scaler] { scaler.start(); });

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix({1.0}),
        workload::UserPopulation::uniform(100), 3);
    gen.setQps(qps);
    gen.start();
    if (!degraded_backend) {
        // Case A: the client load ramps up twice, pushing nginx past
        // its capacity each time (the paper's t=14s / t=35s pattern).
        w->ctx.schedule(secToTicks(8.0), [&gen, qps] {
            gen.setQps(3.0 * qps);
        });
        w->ctx.schedule(secToTicks(28.0), [&gen, qps] {
            gen.setQps(5.0 * qps);
        });
    } else {
        // Case B: healthy until t=10s, then a co-scheduled antagonist
        // slows the memcached server 40x (~80us/op becomes ~3.2ms/op)
        // — a seemingly negligible per-op cost that saturates the
        // 2-thread instance.
        w->ctx.schedule(secToTicks(10.0), [&] {
            const unsigned mc_server = app.service("memcached")
                                           .instances()[0]
                                           ->server()
                                           .id();
            w->cluster.server(mc_server).setSlowFactor(40.0);
        });
    }

    TextTable table({"t(s)", "nginx p99(ms)", "memcached p99(ms)",
                     "nginx occup", "nginx CPU util", "nginx inst",
                     "drops"});
    const service::Microservice &nginx_tier = app.service("nginx");
    for (int t = 4; t <= 60; t += 4) {
        w->ctx.runUntil(secToTicks(static_cast<double>(t)));
        const obs::IntervalSample &n = pipe.store().find("nginx")->latest();
        const obs::IntervalSample &m =
            pipe.store().find("memcached")->latest();
        table.add(t, fmtDouble(ticksToMs(n.p99), 2),
                  fmtDouble(ticksToMs(m.p99), 2),
                  fmtDouble(nginx_tier.meanOccupancy(), 2),
                  fmtDouble(n.utilization, 2),
                  nginx_tier.activeInstances(), app.droppedRequests());
    }
    printBanner(std::cout, label);
    table.print(std::cout);
    std::cout << "scale-out events: " << scaler.events().size() << " (";
    for (const auto &e : scaler.events())
        std::cout << "t=" << fmtDouble(ticksToSec(e.time), 0) << "s ";
    std::cout << ")\n";

    if (pipe.slo().violated()) {
        const obs::SloViolation &v = pipe.slo().violations().front();
        std::cout << "e2e p99 SLO (5ms) tripped at t="
                  << fmtDouble(ticksToSec(v.time), 0) << "s; culprit "
                  << "ranking (expect "
                  << (degraded_backend ? "memcached" : "nginx")
                  << " first):\n";
        obs::CulpritLocalizer loc(pipe.store());
        std::cout << obs::culpritTable(
            loc.localize(pipe.slo().firstViolationTime(),
                         obs::CulpritLocalizer::tierDepths(app)));
    } else {
        std::cout << "no e2e SLO violation recorded\n";
    }
}

} // namespace

int
main()
{
    header("Fig 17: backpressure in a two-tier service",
           "Case A: autoscaler fixes nginx saturation (scale-outs ~t=14s,"
           " 35s). Case B: memcached backpressures nginx through HTTP/1 "
           "connections; scaling nginx does not help and can make it "
           "worse");
    // Case A: nginx is the true bottleneck (24 threads x ~0.43ms
    // service => ~55k/s... driven well past one instance's capacity
    // via CPU-heavy requests at high rate).
    runCase(false, 16000.0, "Case A: true NGINX saturation");
    // Case B: memcached degraded to ~3.2ms/op behind 4 connections
    // (~1.2k op/s ceiling) while nginx is offered 2.5k QPS.
    runCase(true, 2500.0, "Case B: memcached backpressures NGINX");
    return 0;
}
