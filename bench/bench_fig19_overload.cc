/**
 * @file
 * Fig 19 (overload companion): graceful degradation under server-side
 * admission control vs goodput collapse without it.
 *
 * A two-tier app (wide front, 1000 rps backend bottleneck) is driven
 * at 1x..100x its capacity. The user-facing share of the load is held
 * at 90% of capacity; everything above it is batch traffic. Each
 * multiplier runs twice: an uncontrolled FIFO backend, and the same
 * backend with QoS admission control (bounded per-class queues,
 * batch shed at half the bound, lopsided WRR weights).
 *
 * Uncontrolled, the shared queue grows without bound, every arrival
 * waits past the attempt timeout and the backend burns its capacity
 * on zombie work: user-facing goodput falls off the Fig-19 cliff.
 * Controlled, batch is refused at the door and user-facing goodput
 * stays near the offered 900 rps at every multiplier.
 *
 * `--out FILE` records the sweep as JSON for CI diffing; the optional
 * `--min-controlled FRAC` gate fails the run if controlled user
 * goodput drops below FRAC x capacity at any multiplier >= 10.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/builder.hh"
#include "bench_common.hh"
#include "core/json.hh"
#include "service/admission.hh"
#include "service/app.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

constexpr double kCapacityRps = 1000.0; // backend: 1 thread x 1ms
constexpr double kUserRps = 900.0;      // user-facing offered load

struct Row
{
    double multiplier = 0.0;
    double offeredRps = 0.0;
    double naiveGoodput = 0.0;      ///< user-facing, uncontrolled
    double controlledGoodput = 0.0; ///< user-facing, with admission
    std::uint64_t shedBatch = 0;    ///< batch refusals, controlled run
};

/** User-facing goodput (rps) of one run at @p mult x capacity. */
double
runOnce(double mult, bool controlled, Tick horizon, Tick from,
        std::uint64_t &shed_batch)
{
    apps::WorldConfig c;
    c.workerServers = 2;
    c.seed = 42;
    apps::World world(c);
    service::App &app = *world.app;

    service::ServiceDef backend;
    backend.name = "backend";
    backend.handler.compute(apps::computeUsConst(1000.0));
    backend.threadsPerInstance = 1;
    app.addService(std::move(backend)).addInstance(world.worker(1));

    service::ServiceDef front;
    front.name = "front";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(apps::computeUsConst(20.0)).call("backend");
    front.threadsPerInstance = 64;
    app.addService(std::move(front)).addInstance(world.worker(0));

    app.setEntry("front");
    app.addQueryType({"user", 1.0, 1.0, 0, {}});
    app.addQueryType({"batch", 1.0, 1.0, 0, {}});
    app.validate();
    app.service("backend").mutableDef().resilience.timeout =
        50 * kTicksPerMs;

    if (controlled) {
        service::QosConfig qc;
        qc.policy.weights = {100, 1, 1};
        qc.policy.classQueueCapacity = 32;
        qc.batchQueries = {"batch"};
        app.enableQos(qc);
    }

    unsigned user_ok = 0;
    auto loop = [&](unsigned query, double qps) {
        if (qps <= 0.0)
            return;
        const Tick interval = static_cast<Tick>(kTicksPerSec / qps);
        for (Tick t = interval; t < horizon; t += interval)
            world.ctx.scheduleAt(t, [&world, &user_ok, query, t, from,
                                     horizon]() {
                world.app->inject(
                    query, t / kTicksPerMs,
                    [&user_ok, query, from,
                     horizon](const service::Request &r) {
                        if (query == 0 && r.failStatus == 0 &&
                            !r.dropped && r.completeTime >= from &&
                            r.completeTime < horizon)
                            ++user_ok;
                    });
            });
    };
    loop(0, kUserRps);
    loop(1, mult * kCapacityRps - kUserRps);
    world.ctx.run();

    if (controlled)
        shed_batch =
            app.metrics().counter("admission.shed.batch").value();
    const double window_sec =
        static_cast<double>(horizon - from) / kTicksPerSec;
    return static_cast<double>(user_ok) / window_sec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    double min_controlled = 0.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&] {
            if (i + 1 >= argc)
                fatal(strCat("missing value for ", a));
            return std::string(argv[++i]);
        };
        if (a == "--out")
            out_path = need();
        else if (a == "--min-controlled")
            min_controlled = std::atof(need().c_str());
        else
            fatal(strCat("unknown option '", a, "'"));
    }

    header("Fig 19 (overload): admission control vs goodput collapse",
           "once a tier saturates, queues grow without bound and QoS "
           "collapses; shedding low-priority work restores graceful "
           "degradation");

    const Tick horizon = simTime(3.0);
    const Tick from = simTime(1.0); // skip the fill-up transient

    TextTable table({"overload", "offered(rps)", "naive user(rps)",
                     "naive %cap", "qos user(rps)", "qos %cap",
                     "batch shed"});
    std::vector<Row> rows;
    for (double mult : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
        Row row;
        row.multiplier = mult;
        row.offeredRps = mult * kCapacityRps;
        std::uint64_t unused = 0;
        row.naiveGoodput = runOnce(mult, false, horizon, from, unused);
        row.controlledGoodput =
            runOnce(mult, true, horizon, from, row.shedBatch);
        rows.push_back(row);
        table.add(fmtDouble(mult, 0) + "x", row.offeredRps,
                  fmtDouble(row.naiveGoodput, 0),
                  fmtDouble(100.0 * row.naiveGoodput / kCapacityRps, 0) +
                      "%",
                  fmtDouble(row.controlledGoodput, 0),
                  fmtDouble(100.0 * row.controlledGoodput / kCapacityRps,
                            0) +
                      "%",
                  row.shedBatch);
    }
    table.print(std::cout);
    std::cout << "\nExpect the naive column to collapse once the offered "
                 "load exceeds capacity, while the qos column stays near "
              << fmtDouble(kUserRps, 0) << " rps at every multiplier.\n";

    json::Writer w;
    w.beginObject();
    w.field("bench", "fig19_overload");
    w.field("capacity_rps", kCapacityRps);
    w.field("user_rps", kUserRps);
    w.beginArray("rows");
    for (const Row &row : rows) {
        w.beginObject();
        w.field("multiplier", row.multiplier);
        w.field("offered_rps", row.offeredRps);
        w.field("naive_user_goodput_rps", row.naiveGoodput);
        w.field("controlled_user_goodput_rps", row.controlledGoodput);
        w.field("controlled_batch_shed", row.shedBatch);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    const std::string doc = w.str() + "\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal(strCat("cannot open '", out_path, "' for writing"));
        out << doc;
        std::cout << "wrote " << out_path << "\n";
    } else {
        std::cout << doc;
    }

    if (min_controlled > 0.0)
        for (const Row &row : rows)
            if (row.multiplier >= 10.0 &&
                row.controlledGoodput < min_controlled * kCapacityRps) {
                std::cerr << "FAIL: controlled user goodput "
                          << row.controlledGoodput << " rps at "
                          << row.multiplier << "x is below the --min-"
                          << "controlled gate of "
                          << min_controlled * kCapacityRps << " rps\n";
                return 1;
            }
    return 0;
}
