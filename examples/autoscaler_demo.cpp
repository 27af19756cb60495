/**
 * @file
 * Example: cluster-management machinery. Runs the E-commerce site into
 * a flash-sale load spike with a utilization-threshold autoscaler
 * attached, and prints the reaction timeline from the telemetry
 * pipeline's per-tier series: tail latency of three tiers, the
 * scale-outs so far, when the front-end first violated QoS, and every
 * scale-out the autoscaler made. Exits 1 if it made none.
 *
 *   $ ./build/examples/autoscaler_demo
 */

#include <iostream>

#include "apps/builder.hh"
#include "apps/ecommerce.hh"
#include "core/table.hh"
#include "manager/autoscaler.hh"
#include "obs/pipeline.hh"
#include "workload/generators.hh"

using namespace uqsim;

int
main()
{
    apps::WorldConfig config;
    config.workerServers = 6;
    apps::World world(config);
    apps::buildEcommerce(world);
    service::App &app = *world.app;
    // Balanced provisioning: worker pools small enough that the spike
    // saturates the logic tiers instead of disappearing into slack.
    apps::throttleLogicTiers(app, /*frontend=*/24, /*logic=*/2);

    // 5s per-tier series; a front-end interval whose p99 is over the
    // app QoS is a violation.
    obs::PipelineConfig pc;
    pc.interval = secToTicks(5.0);
    pc.slo.tier = app.entry();
    pc.slo.latency = app.config().qosLatency;
    pc.slo.window = 1;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    manager::AutoScaler::Config cfg;
    cfg.threshold = 0.7;
    cfg.interval = secToTicks(5.0);
    cfg.startupDelay = secToTicks(15.0);
    cfg.cooldown = secToTicks(20.0);
    manager::AutoScaler scaler(app, cfg, [&]() -> cpu::Server & {
        return world.nextWorker();
    });
    scaler.watchAllStateless();
    scaler.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(2000), 3);
    gen.setQps(300.0);
    gen.start();

    // Flash-sale spike at t=60s.
    world.ctx.schedule(secToTicks(60.0), [&gen] { gen.setQps(2600.0); });
    world.ctx.runUntil(secToTicks(240.0));

    TextTable table({"t(s)", "front-end p99(ms)", "orders p99(ms)",
                     "queueMaster p99(ms)", "instances added"});
    const obs::TimeSeriesStore &store = pipe.store();
    const obs::Series &fe = *store.find("front-end");
    for (std::size_t i = 0; i < fe.size(); ++i) {
        const Tick end = fe.at(i).end;
        const int t = static_cast<int>(ticksToSec(end));
        if (t % 20 != 0)
            continue;
        std::size_t added = 0;
        for (const auto &e : scaler.events())
            if (e.time <= end)
                ++added;
        table.add(t, fmtDouble(ticksToMs(fe.at(i).p99), 1),
                  fmtDouble(ticksToMs(store.find("orders")->at(i).p99), 1),
                  fmtDouble(ticksToMs(store.find("queueMaster")->at(i).p99),
                            1),
                  added);
    }
    std::cout << "E-commerce flash sale with autoscaling "
                 "(spike at t=60s):\n";
    table.print(std::cout);

    const Tick detect = pipe.slo().firstViolationTime();
    std::cout << "\n"
              << (detect ? "QoS violation detected at t=" +
                               fmtDouble(ticksToSec(detect), 0) + "s"
                         : std::string("no QoS violation"))
              << "; " << scaler.events().size() << " scale-outs:";
    for (const auto &e : scaler.events())
        std::cout << " " << e.service << "@t="
                  << fmtDouble(ticksToSec(e.time), 0) << "s";
    std::cout << "\n";
    return scaler.events().empty() ? 1 : 0;
}
