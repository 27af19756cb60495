/**
 * @file
 * Ablations over the design choices DESIGN.md calls out:
 *
 *  1. Tracing overhead: the paper claims its distributed tracing adds
 *     <0.1% end-to-end latency (Sec 3.7). The simulated tracer is
 *     off-path, so this validates that enabling collection does not
 *     perturb results (determinism check), and reports the memory-side
 *     span volume.
 *  2. HTTP/1 connection pool sizing: the backpressure lever of Fig 17B.
 *  3. Kernel TCP cost sensitivity: how the Fig 3 network share moves
 *     with the per-message kernel cost (the knob the FPGA removes).
 */

#include "bench_common.hh"
#include "cpu/power.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

void
tracingOverhead()
{
    printBanner(std::cout, "Ablation 1: tracing overhead (paper: <0.1%)");
    TextTable table({"tracing", "completed", "p50(ms)", "p99(ms)",
                     "spans stored"});
    for (bool tracing : {true, false}) {
        apps::WorldConfig c;
        c.workerServers = 5;
        c.appConfig.tracing = tracing;
        apps::World w(c);
        apps::buildSocialNetwork(w);
        auto r = drive(*w.app, 400.0, 1.0, 3.0);
        table.add(tracing ? "on" : "off", r.completed,
                  fmtDouble(ticksToMs(r.p50), 3),
                  fmtDouble(ticksToMs(r.p99), 3),
                  w.app->traceStore().size());
    }
    table.print(std::cout);
    std::cout << "Identical latency rows => zero perturbation from "
                 "collection, matching the paper's <0.1% bound.\n";
}

void
poolSizing()
{
    printBanner(std::cout,
                "Ablation 2: HTTP/1 connections per caller-callee pair");
    TextTable table({"pool size", "p50(ms)", "p99(ms)",
                     "frontend occupancy"});
    for (unsigned conns : {1u, 2u, 4u, 8u, 32u}) {
        auto w = makeWorld(4);
        service::App &app = *w->app;
        service::ServiceDef mc;
        mc.name = "memcached";
        mc.kind = service::ServiceKind::Cache;
        mc.handler.compute(Dist::lognormalMean(1200.0 * 1440.0, 0.4));
        mc.threadsPerInstance = 64;
        mc.protocol = rpc::ProtocolModel::restHttp1();
        mc.protocol.connectionsPerPair = conns;
        app.addService(std::move(mc)).addInstance(w->worker(1));
        service::ServiceDef fe;
        fe.name = "nginx";
        fe.kind = service::ServiceKind::Frontend;
        fe.handler.compute(Dist::lognormalMean(100.0 * 1440.0, 0.4))
            .call("memcached");
        fe.threadsPerInstance = 64;
        app.addService(std::move(fe)).addInstance(w->worker(0));
        app.setEntry("nginx");
        app.addQueryType({"read", 1, 1.0, 0, {}});
        app.setQosLatency(20 * kTicksPerMs);
        app.validate();
        auto r = drive(app, 2500.0, 1.0, 3.0);
        table.add(conns, fmtDouble(ticksToMs(r.p50), 2),
                  fmtDouble(ticksToMs(r.p99), 2),
                  fmtDouble(app.service("nginx").meanOccupancy(), 2));
    }
    table.print(std::cout);
    std::cout << "Small pools throttle a healthy backend (p99 explodes "
                 "below ~4 connections at this load): the same "
                 "mechanism that transmits backpressure in Fig 17B.\n";
}

void
tcpCostSensitivity()
{
    printBanner(std::cout,
                "Ablation 3: kernel TCP cost vs network share (Fig 3)");
    TextTable table({"per-msg cost scale", "net share", "mean lat (ms)"});
    for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        apps::WorldConfig c;
        c.workerServers = 5;
        c.appConfig.tcp.sendBaseCycles = static_cast<Cycles>(
            5000 * scale);
        c.appConfig.tcp.recvBaseCycles = static_cast<Cycles>(
            6500 * scale);
        apps::World w(c);
        apps::buildSocialNetwork(w);
        auto r = drive(*w.app, 300.0, 1.0, 3.0);
        table.add(fmtDouble(scale, 2),
                  fmtDouble(100.0 * r.networkShare, 1) + "%",
                  fmtDouble(r.meanMs, 2));
    }
    table.print(std::cout);
    std::cout << "The Social Network's Fig 3 share (36.3%) sits between "
                 "the 0.5x and 1x rows; the calibration is documented "
                 "in EXPERIMENTS.md.\n";
}

void
jsqVsRoundRobin()
{
    printBanner(std::cout,
                "Ablation 4: load-balancing policy under a slow server "
                "(extension to Fig 22c)");
    TextTable table({"policy", "goodput frac (healthy)",
                     "goodput frac (1 slow server)"});
    auto run = [&](service::LbPolicy policy, bool slow) {
        auto w = makeWorld(10);
        apps::AppOptions opt;
        opt.instancesPerTier = 2;
        apps::buildSocialNetwork(*w, opt);
        apps::throttleLogicTiers(*w->app, 24, 8);
        for (service::Microservice *svc : w->app->services())
            if (svc->def().kind == service::ServiceKind::Stateless)
                svc->mutableDef().lbPolicy = policy;
        if (slow)
            w->cluster.injectSlowServers(1, 300.0);
        auto r = workload::runLoad(
            *w->app, 1500.0, simTime(0.8), simTime(2.0),
            workload::QueryMix::fromApp(*w->app),
            workload::UserPopulation::uniform(1000), 19);
        return std::min(1.0,
                        r.goodputQps / std::max(1.0, r.offeredQps));
    };
    for (auto policy : {service::LbPolicy::RoundRobin,
                        service::LbPolicy::JoinShortestQueue}) {
        table.add(policy == service::LbPolicy::RoundRobin
                      ? "round-robin"
                      : "join-shortest-queue",
                  fmtDouble(run(policy, false), 2),
                  fmtDouble(run(policy, true), 2));
    }
    table.print(std::cout);
    std::cout << "Queue-aware balancing recovers much of the goodput a "
                 "slow server destroys under round-robin - the "
                 "dependency-aware management the paper calls for.\n";
}

void
energyVsFrequency()
{
    printBanner(std::cout,
                "Ablation 5: energy vs frequency (the other side of "
                "Fig 12's RAPL study)");
    TextTable table({"frequency", "p99(ms)", "avg power (W)",
                     "joules/request"});
    for (double freq : {2400.0, 1800.0, 1200.0, 1000.0}) {
        auto w = makeWorld(5);
        apps::buildSocialNetwork(*w);
        w->cluster.setAllFrequenciesMhz(freq);
        cpu::EnergyMeter meter(w->ctx, w->cluster,
                               cpu::PowerModel::xeon());
        meter.start();
        auto r = drive(*w->app, 1200.0, 1.0, 3.0);
        table.add(fmtDouble(freq, 0) + "MHz",
                  fmtDouble(ticksToMs(r.p99), 1),
                  fmtDouble(meter.averageWatts(), 0),
                  fmtDouble(meter.totalJoules() /
                                std::max<double>(1.0, r.completed),
                            1));
    }
    table.print(std::cout);
    std::cout << "Capping frequency trades tail latency for power - at "
                 "this (low) utilization the idle floor dominates, the "
                 "paper's energy-proportionality problem.\n";
}

} // namespace

int
main()
{
    header("Design ablations",
           "tracing overhead, connection-pool sizing, TCP cost "
           "calibration, LB policy, energy");
    tracingOverhead();
    poolSizing();
    tcpCostSensitivity();
    jsqVsRoundRobin();
    energyVsFrequency();
    return 0;
}
