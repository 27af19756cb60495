/**
 * @file
 * uqsim_run: command-line driver over the whole suite.
 *
 * Run any end-to-end application under any platform/protocol/fault
 * configuration without writing C++:
 *
 *   uqsim_run --app social-network --qps 300 --duration 10
 *   uqsim_run --app ecommerce --core thunderx --freq 1800 --report services
 *   uqsim_run --app social-network --fpga --report traces
 *   uqsim_run --app banking --lambda s3 --report cost
 *   uqsim_run --app swarm-edge --qps 4 --drones 24
 *   uqsim_run --app social-network --slow-servers 2 --skew 90
 *   uqsim_run --app social-network --shards 4 --threads 4
 *   uqsim_run --app social-network --placement partition --shards 4
 *   uqsim_run --config scenario.json
 *   uqsim_run --list
 *
 * Prints a latency/goodput summary plus the requested report section.
 * The whole run is described by an apps::Scenario: flags fill one in,
 * --config loads one from JSON (later flags override it), and
 * --dump-config prints the effective scenario and exits.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "apps/scenario.hh"
#include "core/logging.hh"
#include "core/table.hh"
#include "cpu/power.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "gen/profile.hh"
#include "gen/topology.hh"
#include "obs/culprit.hh"
#include "obs/export.hh"
#include "serverless/platform.hh"
#include "trace/analysis.hh"
#include "trace/export.hh"
#include "workload/load_sweep.hh"

using namespace uqsim;

namespace {

struct Options
{
    /** The run itself; every model-affecting flag lands here. */
    apps::Scenario scn;

    // -- output-only options (not part of the scenario) -------------
    std::string report = "summary"; // one of kReportKinds
    std::string traceOut;           // Perfetto JSON file ("" = none)
    std::string metricsOut;         // metrics snapshot JSON ("" = none)
    std::string timeseriesOut;      // interval series ("" = none)
    bool list = false;
    bool listGenProfiles = false;
    bool dumpConfig = false;
    /** --app was given explicitly (conflicts with --generate). */
    bool appFlag = false;
};

const std::string kReportKinds = "summary | services | traces | cost | "
                                 "energy | resilience | data | qos | "
                                 "replication | slo";

void
usage()
{
    std::cout << "uqsim_run - drive a DeathStarBench model from the CLI\n\n"
              << apps::scenarioFlagHelp();
    const std::pair<const char *, std::string> output_flags[] = {
        {"--config FILE", "load a scenario JSON (flags after it override; "
                          "see --dump-config)"},
        {"--dump-config", "print the effective scenario JSON, exit"},
        {"--report KIND", kReportKinds},
        {"--trace-out FILE",
         "write collected spans as Chrome/Perfetto trace-event JSON (open "
         "in ui.perfetto.dev); with telemetry on, per-tier counter "
         "tracks ride along"},
        {"--metrics-out FILE", "write the metrics-registry snapshot as JSON"},
        {"--timeseries-out FILE",
         "write the interval series (.csv gets CSV, anything else JSON)"},
        {"--list, --list-apps", "list applications and exit"},
        {"--list-gen-profiles", "list topology-sampling profiles, exit"},
    };
    for (const auto &[flag, text] : output_flags)
        std::cout << apps::helpEntry(flag, text);
    std::cout << "\nAny --qos-* flag implies --qos; any --slo-* or "
                 "--timeseries-* flag\nenables telemetry sampling. Options "
                 "taking a value also accept --opt=value.\n";
}

bool
parse(int argc, char **argv, Options &opt)
{
    // Accept both "--opt value" and "--opt=value" by splitting on the
    // first '=' of every long option up-front.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }

    auto need = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            fatal(strCat("missing value for ", args[i]));
        return args[++i];
    };
    apps::Scenario &scn = opt.scn;
    std::string error;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (const apps::ScenarioField *f = apps::findScenarioFlag(a)) {
            opt.appFlag = opt.appFlag || a == "--app";
            if (!apps::applyScenarioFlag(
                    *f, f->takesValue() ? need(i) : std::string(), scn,
                    error))
                fatal(error);
        } else if (a == "--config") {
            // Processed in flag order: flags before act as defaults
            // the file overrides, flags after override the file.
            const std::string &path = need(i);
            std::ifstream in(path);
            if (!in)
                fatal(strCat("cannot read scenario '", path, "'"));
            std::ostringstream text;
            text << in.rdbuf();
            if (!apps::parseScenarioJson(text.str(), scn, error))
                fatal(strCat("bad scenario '", path, "': ", error));
        } else if (a == "--dump-config")
            opt.dumpConfig = true;
        else if (a == "--report")
            opt.report = need(i);
        else if (a == "--trace-out")
            opt.traceOut = need(i);
        else if (a == "--metrics-out")
            opt.metricsOut = need(i);
        else if (a == "--timeseries-out") {
            opt.timeseriesOut = need(i);
            scn.obsEnabled = true;
        } else if (a == "--list" || a == "--list-apps")
            opt.list = true;
        else if (a == "--list-gen-profiles")
            opt.listGenProfiles = true;
        else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal(strCat("unknown option '", a, "' (try --help)"));
        }
    }

    if ((" | " + kReportKinds + " | ").find(" | " + opt.report + " | ") ==
        std::string::npos)
        fatal(strCat("unknown report kind '", opt.report, "' (want ",
                     kReportKinds, ")"));
    if (!apps::validateScenario(scn, error))
        fatal(error);
    if (opt.appFlag && !scn.genProfile.empty())
        fatal("--generate conflicts with --app (the sampled topology "
              "replaces the hand-written app)");
    return true;
}

const char *
appFlagName(apps::AppId id)
{
    switch (id) {
    case apps::AppId::SocialNetwork: return "social-network";
    case apps::AppId::MediaService: return "media";
    case apps::AppId::Ecommerce: return "ecommerce";
    case apps::AppId::Banking: return "banking";
    case apps::AppId::SwarmCloud: return "swarm-cloud";
    case apps::AppId::SwarmEdge: return "swarm-edge";
    }
    return "";
}

void
listApps()
{
    std::cout << "End-to-end services (Table 1):\n";
    for (apps::AppId id : apps::allApps()) {
        const auto &info = apps::appInfo(id);
        std::cout << "  " << appFlagName(id) << ": " << info.name
                  << ", " << info.uniqueMicroservices
                  << " microservices, " << info.protocol << "\n";
    }
    std::cout << "Single-tier baselines: nginx, memcached, mongodb, "
                 "xapian, recommender\nMonolith: social-monolith\n";
}

void
listGenProfiles()
{
    std::cout << "Topology-sampling profiles (--generate):\n";
    for (const gen::GenProfile &p : gen::allGenProfiles())
        std::cout << "  " << p.name << ": " << p.summary << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 0;
    if (opt.list) {
        listApps();
        return 0;
    }
    if (opt.listGenProfiles) {
        listGenProfiles();
        return 0;
    }
    if (opt.dumpConfig) {
        std::cout << apps::scenarioToJson(opt.scn);
        return 0;
    }
    const apps::Scenario &scn = opt.scn;
    // Declared before the meters, so the meters die first.
    apps::ScenarioWorld world = apps::deployScenario(scn);
    apps::WorldHandle &sharded = *world.handle;
    const unsigned nshards = sharded.shards();
    const bool partitioned =
        sharded.deployment() == apps::Deployment::Partition;
    const std::vector<std::unique_ptr<obs::Pipeline>> &pipelines =
        world.pipelines;

    // Energy meters schedule sampling events of their own, so they
    // run only for the energy report.
    std::vector<std::unique_ptr<cpu::EnergyMeter>> meters;
    for (unsigned s = 0; s < nshards && opt.report == "energy"; ++s) {
        apps::World &w = sharded.shard(s);
        meters.push_back(std::make_unique<cpu::EnergyMeter>(
            w.ctx, w.cluster, cpu::PowerModel::xeon()));
        meters.back()->start();
    }
    if (!world.injectors.empty()) {
        // Every shard arms the same schedule; print it once.
        std::cout << "armed fault schedule:\n";
        for (const fault::FaultSpec &spec :
             world.injectors.front()->schedule())
            std::cout << "  " << spec.describe() << "\n";
    }

    service::App &app = *sharded.shard(0).app;
    const auto r = apps::runWorld(sharded, apps::loadSpecFor(scn));

    // Cross-shard sums for the summary/report sections.
    std::uint64_t failed_total = 0;
    for (unsigned s = 0; s < nshards; ++s)
        failed_total += sharded.shard(s).app->failedRequests();
    auto total = [&](const std::string &counter) {
        std::uint64_t v = 0;
        for (unsigned s = 0; s < nshards; ++s)
            v += sharded.shard(s).app->metrics().counter(counter).value();
        return v;
    };

    // ---- summary ---------------------------------------------------------
    if (!scn.genProfile.empty()) {
        // Re-sampling is cheap and deterministic; every shard built
        // this same shape.
        gen::GenOverrides ov;
        ov.depth = scn.genDepth;
        ov.width = scn.genWidth;
        ov.fanout = scn.genFanout;
        std::cout << gen::topologySummary(gen::sampleTopology(
                         *gen::genProfileByName(scn.genProfile),
                         scn.genSeed, ov))
                  << "\n";
    }
    std::cout << (scn.genProfile.empty() ? scn.app
                                         : "gen:" + scn.genProfile)
              << " @ " << scn.qps << " qps on " << scn.servers
              << "x " << sharded.shard(0).config().coreModel.name;
    if (nshards > 1)
        std::cout << " (" << nshards << " shards, "
                  << (partitioned ? "partitioned, " : "")
                  << sharded.engine().threads() << " threads)";
    std::cout << "\n";
    TextTable summary({"metric", "value"});
    summary.add("completed", r.completed);
    summary.add("dropped", r.dropped);
    // Only present when something actually failed, so the default
    // (fault-free) output stays byte-identical.
    if (failed_total > 0)
        summary.add("failed", failed_total);
    summary.add("p50", fmtMs(r.p50));
    summary.add("p95", fmtMs(r.p95));
    summary.add("p99", fmtMs(r.p99));
    summary.add("mean", fmtDouble(r.meanMs, 3) + "ms");
    summary.add("goodput (QoS " +
                    fmtDouble(ticksToMs(app.config().qosLatency), 0) +
                    "ms)",
                fmtDouble(r.goodputQps, 1) + " qps");
    summary.add("network-processing share",
                fmtDouble(100.0 * r.networkShare, 1) + "%");
    summary.add("cluster CPU utilization",
                fmtDouble(100.0 * r.meanUtilization, 2) + "%");
    summary.add("events simulated", sharded.engine().eventsExecuted());
    {
        // Order-sensitive fingerprint of the executed event sequence;
        // equal seeds must reproduce it bit-for-bit (at any --threads).
        std::ostringstream digest;
        digest << std::hex << std::setw(16) << std::setfill('0')
               << sharded.engine().executionDigest();
        summary.add("execution digest", digest.str());
    }
    summary.print(std::cout);

    // ---- per-query-type latency ----------------------------------------
    if (app.queryTypes().size() > 1) {
        TextTable q({"query type", "count", "p50(ms)", "p99(ms)"});
        for (unsigned i = 0; i < app.queryTypes().size(); ++i) {
            QuantileSketch h;
            for (unsigned s = 0; s < nshards; ++s)
                h.merge(sharded.shard(s).app->endToEndLatencyFor(i));
            if (h.count() == 0)
                continue;
            q.add(app.queryTypes()[i].name, h.count(),
                  fmtDouble(ticksToMs(h.p50()), 2),
                  fmtDouble(ticksToMs(h.p99()), 2));
        }
        printBanner(std::cout, "query types");
        q.print(std::cout);
    }

    // ---- optional report sections ---------------------------------------
    // Trace-derived sections read shard 0 (each shard records its own
    // spans; the shards are statistical replicas).
    if (nshards > 1 &&
        (opt.report == "services" || opt.report == "traces" ||
         opt.report == "slo" || !opt.traceOut.empty() ||
         !opt.metricsOut.empty() || !opt.timeseriesOut.empty()))
        std::cout << "note: trace/metrics sections cover shard 0 of "
                  << nshards << "\n";
    if (opt.report == "services" || opt.report == "traces") {
        trace::TraceAnalysis ta(app.traceStore());
        printBanner(std::cout, "per-service (from traces)");
        TextTable t({"service", "spans", "mean(us)", "p99(ms)", "net%",
                     "app%", "queue%"});
        for (const auto &s : ta.perService()) {
            t.add(s.service, s.spanCount, fmtDouble(s.meanLatencyUs, 0),
                  fmtDouble(ticksToMs(s.p99LatencyNs), 2),
                  fmtDouble(100 * s.networkShare, 0),
                  fmtDouble(100 * s.appShare, 0),
                  fmtDouble(100 * s.queueShare, 0));
        }
        t.print(std::cout);
    }
    if (opt.report == "traces") {
        trace::TraceAnalysis ta(app.traceStore());
        printBanner(std::cout, "critical path (mean us/request)");
        TextTable cp({"service", "exclusive", "queue", "app", "network",
                      "downstream"});
        for (const auto &e : ta.criticalPathBreakdown())
            cp.add(e.service, fmtDouble(e.exclusiveNs / 1000.0, 0),
                   fmtDouble(e.queueNs / 1000.0, 0),
                   fmtDouble(e.appNs / 1000.0, 0),
                   fmtDouble(e.networkNs / 1000.0, 0),
                   fmtDouble(e.downstreamNs / 1000.0, 0));
        cp.print(std::cout);
        const auto &store = app.traceStore();
        if (store.evicted() > 0)
            std::cout << "note: " << store.evicted()
                      << " oldest spans evicted from the ring "
                         "(capacity " << store.capacity()
                      << "; raise with --trace-capacity)\n";
    }
    if (opt.report == "cost") {
        const Tick window = secToTicks(600.0);
        const serverless::Ec2CostModel ec2;
        const std::string store = serverless::LambdaConfig{}.storeName;
        printBanner(std::cout, "cost (per 10 minutes)");
        if (scn.lambda.empty()) {
            std::cout << "EC2 reserved (" << scn.servers * nshards
                      << " servers as m5.12xlarge): $"
                      << fmtDouble(
                             ec2.cost(scn.servers * nshards, window), 2)
                      << "\n";
        } else {
            const serverless::LambdaCostModel lc;
            std::uint64_t inv = 0;
            Tick billed = 0;
            for (unsigned s = 0; s < nshards; ++s) {
                service::App &a = *sharded.shard(s).app;
                inv += serverless::LambdaPlatform::invocations(
                    a, store);
                billed += serverless::LambdaPlatform::billedDuration(
                    a, lc, store);
            }
            const double scale = 600.0 / scn.durationSec;
            std::cout << "Lambda (" << scn.lambda << " state): $"
                      << fmtDouble(lc.cost(inv, billed) * scale, 2)
                      << "  (" << inv << " invocations measured)\n";
        }
    }
    if (opt.report == "resilience") {
        printBanner(std::cout, "resilience / fault outcomes");
        TextTable t({"counter", "value"});
        static const char *const kCounters[] = {
            "app.requests_failed",
            "rpc.errors",
            "rpc.timeouts",
            "rpc.retries",
            "rpc.retry_budget_exhausted",
            "rpc.breaker_fast_fails",
            "rpc.deadline_exceeded",
            "rpc.shed",
            "rpc.pool.acquire_timeouts",
            "rpc.crashed_in_flight",
            "rpc.abandoned_arrivals",
            "fault.requests_failed",
            "fault.crashes",
            "fault.messages_dropped",
        };
        for (const char *name : kCounters)
            t.add(name, total(name));
        {
            std::uint64_t net_dropped = 0;
            for (unsigned s = 0; s < nshards; ++s)
                net_dropped +=
                    sharded.shard(s).network->messagesDropped();
            t.add("net.messages_dropped", net_dropped);
        }
        t.print(std::cout);
        TextTable e({"service", "served", "failed", "dropped"});
        for (unsigned i = 0; i < app.services().size(); ++i) {
            std::uint64_t served = 0, failed = 0, dropped = 0;
            for (unsigned s = 0; s < nshards; ++s) {
                const service::Microservice *svc =
                    sharded.shard(s).app->services()[i];
                for (const auto &inst : svc->instances()) {
                    served += inst->served();
                    failed += inst->failed();
                    dropped += inst->dropped();
                }
            }
            e.add(app.services()[i]->name(), served, failed, dropped);
        }
        printBanner(std::cout, "per-service outcomes");
        e.print(std::cout);
    }
    if (opt.report == "qos") {
        printBanner(std::cout, "admission control / qos classes");
        if (!scn.qosEnabled) {
            std::cout << "admission control disabled (--qos): every "
                         "tier queues arrivals as one FIFO class\n";
        } else {
            TextTable t({"class", "admitted", "served", "shed",
                         "throttled", "overflow"});
            for (unsigned c = 0; c < service::kQosClassCount; ++c) {
                const char *cls = service::qosClassName(
                    static_cast<service::QosClass>(c));
                auto sum = [&](const char *what) {
                    return total(strCat("admission.", what, ".", cls));
                };
                t.add(cls, sum("admitted"), sum("served"),
                      sum("shed"), sum("throttled"), sum("overflow"));
            }
            t.print(std::cout);
        }
    }
    if (opt.report == "slo") {
        printBanner(std::cout, "slo / telemetry");
        if (pipelines.empty()) {
            std::cout << "observability disabled: pass an --slo-* or "
                         "--timeseries-* flag (or a scenario slo: "
                         "block) to sample telemetry\n";
        } else {
            obs::Pipeline &pipe = *pipelines.front();
            const obs::SloConfig &sc = pipe.config().slo;
            TextTable cfg({"setting", "value"});
            cfg.add("target series", pipe.slo().targetSeries());
            cfg.add("interval",
                    fmtDouble(ticksToMs(pipe.config().interval), 0) +
                        "ms");
            cfg.add("intervals sampled",
                    pipe.store().intervalsSampled());
            cfg.add("latency objective",
                    sc.latency
                        ? strCat(fmtDouble(ticksToMs(sc.latency), 2),
                                 "ms at quantile ",
                                 fmtDouble(sc.quantile, 3))
                        : std::string("off"));
            cfg.add("error-rate objective",
                    sc.errorRate > 0.0 ? fmtDouble(sc.errorRate, 3)
                                       : std::string("off"));
            cfg.add("window (intervals)", sc.window);
            cfg.print(std::cout);

            const auto &viol = pipe.slo().violations();
            if (viol.empty()) {
                std::cout << (sc.armed()
                                  ? "no SLO violations\n"
                                  : "no objectives armed (pure "
                                    "telemetry; use --slo-latency / "
                                    "--slo-error-rate)\n");
            } else {
                auto fmtVal = [](const obs::SloViolation &x, double v) {
                    return x.kind ==
                                   obs::SloViolation::Kind::Latency
                               ? fmtDouble(v / 1e6, 2) + "ms"
                               : fmtDouble(v, 3);
                };
                printBanner(std::cout, "slo violations");
                TextTable v({"kind", "series", "onset(s)", "trip(s)",
                             "value", "bound"});
                for (const auto &x : viol)
                    v.add(obs::sloViolationKindName(x.kind), x.series,
                          fmtDouble(ticksToSec(x.onset), 2),
                          fmtDouble(ticksToSec(x.time), 2),
                          fmtVal(x, x.value), fmtVal(x, x.threshold));
                v.print(std::cout);

                // Walk the tier graph backwards from the first trip:
                // which tier degraded first, and how long before the
                // user-visible violation?
                trace::TraceAnalysis ta(app.traceStore());
                obs::CulpritLocalizer loc(pipe.store());
                const auto ranking = loc.localize(
                    pipe.slo().firstViolationTime(),
                    obs::CulpritLocalizer::tierDepths(app),
                    ta.criticalPathBreakdown());
                printBanner(std::cout, "culprit ranking");
                if (ranking.empty())
                    std::cout << "no tier shows a sustained "
                                 "pre-violation degradation\n";
                else
                    std::cout << obs::culpritTable(ranking);
            }
        }
    }
    if (opt.report == "data") {
        printBanner(std::cout, "keyed data tier");
        if (scn.dataKeys == 0) {
            std::cout << "keyed data tier disabled (--cache-keys 0): "
                         "caches use fixed hit probabilities\n";
        } else {
            std::cout << scn.dataKeys << " keys, " << scn.dataPopularity
                      << " popularity";
            if (scn.dataPopularity == "zipf")
                std::cout << " (s=" << fmtDouble(scn.dataZipfS, 2)
                          << ")";
            std::cout << ", " << scn.dataCapacity
                      << " entries/instance, " << scn.dataPolicy << "/"
                      << scn.dataWrite << "\n";
            TextTable t({"tier", "lookups", "hit%", "evict", "expire",
                         "inval", "writes", "cold"});
            for (const service::Microservice *svc : app.services()) {
                // The tier's registry counters cover the measured
                // window only (statReset after warmup) and count
                // lookups on downed shards as misses.
                if (!svc->hasCacheModels())
                    continue;
                const std::string p = "data." + svc->name() + ".";
                const std::uint64_t hits = total(p + "hits");
                const std::uint64_t lookups = hits + total(p + "misses");
                t.add(svc->name(), lookups,
                      fmtDouble(lookups ? 100.0 * hits / lookups : 0.0, 2),
                      total(p + "evictions"), total(p + "expirations"),
                      total(p + "invalidations"), total(p + "writes"),
                      total(p + "cold_restarts"));
            }
            t.print(std::cout);
        }
    }
    if (opt.report == "replication") {
        printBanner(std::cout, "replicated keyed-data tier");
        if (scn.replicaFactor < 2) {
            std::cout << "replication disabled (--replica-factor): "
                         "keyed shards are single copies\n";
        } else {
            std::cout << "factor " << scn.replicaFactor << ", quorum "
                      << (scn.replicaQuorum
                              ? scn.replicaQuorum
                              : scn.replicaFactor / 2 + 1)
                      << ", read preference " << scn.replicaRead;
            if (scn.txnKeys >= 2)
                std::cout << ", 2PC over " << scn.txnKeys << " keys";
            std::cout << "\n";
            TextTable t({"tier", "elections", "failovers", "trims",
                         "lost", "stale", "redirect", "quorum-", "stale-"});
            for (unsigned i = 0; i < app.services().size(); ++i) {
                const service::Microservice *svc = app.services()[i];
                if (!svc->replicated())
                    continue;
                const std::string p = "replica." + svc->name() + ".";
                t.add(svc->name(), total(p + "elections"),
                      total(p + "failovers"), total(p + "log_trims"),
                      total(p + "store_losses"), total(p + "stale_reads"),
                      total(p + "ryw_redirects"), total(p + "quorum_lost"),
                      total(p + "stale_rejects"));
            }
            t.print(std::cout);
            std::cout << "typed rejects settled by callers: quorum_lost="
                      << total("rpc.quorum_lost")
                      << " stale=" << total("rpc.stale_rejects") << "\n";
            if (scn.txnKeys >= 2)
                std::cout << "transactions: started="
                          << total("rpc.txn_started")
                          << " committed=" << total("rpc.txn_commits")
                          << " aborted=" << total("rpc.txn_aborts")
                          << "\n";
        }
    }
    if (opt.report == "energy") {
        double joules = 0.0, watts = 0.0;
        for (const auto &meter : meters) {
            joules += meter->totalJoules();
            watts += meter->averageWatts();
        }
        printBanner(std::cout, "energy");
        std::cout << "cluster average power: " << fmtDouble(watts, 0)
                  << " W\n"
                  << "energy per completed request: "
                  << fmtDouble(joules /
                                   std::max<double>(1.0, r.completed),
                               2)
                  << " J\n";
    }

    // ---- file exports ---------------------------------------------------
    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out)
            fatal(strCat("cannot open '", opt.traceOut, "' for writing"));
        // With telemetry on, the span timeline gains per-tier counter
        // tracks (latency quantiles, load, rates) from shard 0.
        const std::string counters =
            pipelines.empty() ? std::string()
                              : obs::perfettoCounterEvents(
                                    pipelines.front()->store());
        trace::exportPerfettoJson(app.traceStore(), out, 0, counters);
        std::cout << "wrote " << app.traceStore().size() << " spans to "
                  << opt.traceOut << " (open in ui.perfetto.dev)\n";
    }
    if (!opt.timeseriesOut.empty()) {
        if (pipelines.empty()) {
            // Possible when a --config after the flag disables the
            // slo block; an empty export would just mislead.
            std::cout << "note: telemetry disabled, skipping "
                      << opt.timeseriesOut << "\n";
        } else {
            std::ofstream out(opt.timeseriesOut);
            if (!out)
                fatal(strCat("cannot open '", opt.timeseriesOut,
                             "' for writing"));
            const obs::TimeSeriesStore &store =
                pipelines.front()->store();
            const bool csv =
                opt.timeseriesOut.size() >= 4 &&
                opt.timeseriesOut.compare(opt.timeseriesOut.size() - 4,
                                          4, ".csv") == 0;
            if (csv)
                obs::writeTimeSeriesCsv(store, out);
            else
                obs::writeTimeSeriesJson(store, out);
            std::cout << "wrote " << store.intervalsSampled()
                      << " sampled intervals to " << opt.timeseriesOut
                      << (csv ? " (CSV)" : " (JSON)") << "\n";
        }
    }
    if (!opt.metricsOut.empty()) {
        std::ofstream out(opt.metricsOut);
        if (!out)
            fatal(strCat("cannot open '", opt.metricsOut,
                         "' for writing"));
        app.metrics().writeJson(out);
        std::cout << "wrote metrics snapshot to " << opt.metricsOut
                  << "\n";
    }
    return 0;
}
