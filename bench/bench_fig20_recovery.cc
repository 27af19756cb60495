/**
 * @file
 * Fig 20: recovery from a QoS violation under autoscaling, for the
 * microservices Social Network vs its monolithic implementation. Both
 * see the same load spike; the monolith recovers quickly because the
 * autoscaler just clones the single binary, while the microservices
 * version upsizes the most-utilized (wrong) tiers first and takes far
 * longer to reach the culprit.
 */

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "bench_common.hh"
#include "core/json.hh"
#include "fault/injector.hh"
#include "manager/autoscaler.hh"
#include "obs/pipeline.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

void
runDesign(bool monolith, const char *label)
{
    auto w = makeWorld(8);
    if (monolith)
        apps::buildSocialNetworkMonolith(*w);
    else
        apps::buildSocialNetwork(*w);
    service::App &app = *w->app;
    app.setQosLatency(20 * kTicksPerMs);
    // Balanced provisioning (Sec 3.8): per-tier worker pools sized so
    // tiers saturate within the load range the experiment drives.
    apps::throttleLogicTiers(app, /*frontend=*/24, /*logic=*/2);

    // Series at the scaler's 5s grain; an entry-tier interval whose
    // p99 is over the app QoS is a violation (window 1).
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
    cfg.maxScaleOutsPerRound = 1; // gradual upsizing, as real scalers
    manager::AutoScaler scaler(app, cfg, [&]() -> cpu::Server & {
        return w->nextWorker();
    });
    scaler.watchAllStateless();
    scaler.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(500), 3);
    gen.setQps(400.0);
    gen.start();

    // Load spike at t=60s pushes several tiers past saturation.
    w->ctx.runUntil(secToTicks(60.0));
    gen.setQps(3600.0);
    w->ctx.runUntil(secToTicks(300.0));

    // Recovery: from detection until the second of two consecutive
    // good entry samples (one can flatter a tier that got lucky).
    const Tick qos = app.config().qosLatency;
    const Tick detect = pipe.slo().firstViolationTime();
    Tick recover = 0;
    unsigned streak = 0;
    TextTable table({"t(s)", "entry p99(ms)", "QoS?", "instances added"});
    const obs::Series &entry = *pipe.store().find(app.entry());
    for (std::size_t i = 0; i < entry.size(); ++i) {
        const obs::IntervalSample &s = entry.at(i);
        const bool good = s.count > 0 && s.p99 <= qos;
        if (detect && !recover && s.end > detect) {
            streak = good ? streak + 1 : 0;
            if (streak == 2)
                recover = s.end - detect;
        }
        const int t = static_cast<int>(ticksToSec(s.end));
        if (t % 15 != 0)
            continue;
        std::size_t added = 0;
        for (const auto &e : scaler.events())
            if (e.time <= s.end)
                ++added;
        table.add(t, fmtDouble(ticksToMs(s.p99), 1),
                  s.p99 <= qos ? "ok" : "VIOL", added);
    }
    printBanner(std::cout, label);
    table.print(std::cout);

    const std::size_t scale_outs = scaler.events().size();
    if (detect == 0) {
        std::cout << "no QoS violation observed; scale-outs="
                  << scale_outs << "\n";
    } else {
        std::cout << "QoS violation detected at t="
                  << fmtDouble(ticksToSec(detect), 0)
                  << "s; recovery took "
                  << (recover ? fmtDouble(ticksToSec(recover), 0) + "s"
                              : std::string(
                                    "(not recovered in window)"))
                  << "; scale-outs=" << scale_outs << "\n";
    }
}

/** One sampling-interval row of a crash-recovery curve. */
struct CurvePoint
{
    double t = 0.0; ///< unscaled seconds
    double hitRatio = 0.0;
    std::uint64_t lookups = 0;
    double entryP99Ms = 0.0;
};

/** One crash-recovery run of the posts-memcached tier. */
struct RecoveryOutcome
{
    std::vector<CurvePoint> curve;
    double baseline = 0.0;    ///< pre-crash mean hit ratio
    double recoverySec = 0.0; ///< crash start -> hit ratio restored
    std::uint64_t coldRestarts = 0;
    std::uint64_t failovers = 0;
    std::uint64_t logTrims = 0;
};

constexpr double kCrashStartSec = 6.0;
constexpr double kCrashDurSec = 2.0;

/**
 * Post-crash recovery of the keyed posts tier under steady load,
 * replicated or not. Unreplicated (the PR-5 arc): while the shard is
 * down its keys are unreachable, and the restart is *cold*, so the
 * hit-ratio dip persists until the hot set re-warms — every extra
 * miss a database round-trip, which is the entry-tier p99 overshoot
 * after the fault has cleared. Replicated: the crash deposes group
 * 0's leader, the caught-up follower is promoted after one election
 * timeout with the warm store minus the un-applied log tail, and the
 * hit ratio snaps back without any cold warm-up.
 */
RecoveryOutcome
runCacheRecovery(bool replicated)
{
    apps::Scenario scn;
    scn.qps = 600.0;
    scn.dataKeys = 20000;
    scn.dataCapacity = 4096;
    if (replicated) {
        scn.replicaFactor = 2;
        scn.replicaQuorum = 1; // the lone survivor can still lead
    }

    apps::WorldHandle sw(apps::worldConfigFor(scn), 1, 1);
    apps::buildScenarioApp(sw.shard(0), scn);
    service::App &app = *sw.shard(0).app;

    fault::FaultInjector inj(app, scn.seed);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.service = "posts-memcached";
    crash.instance = 0; // group 0 when role-addressed
    crash.role = replicated ? fault::CrashRole::Leader
                            : fault::CrashRole::None;
    crash.start = simTime(kCrashStartSec);
    crash.duration = simTime(kCrashDurSec);
    inj.add(crash);
    inj.arm();

    obs::PipelineConfig pc;
    pc.interval = simTime(0.25);
    obs::Pipeline pipe(app, pc);
    pipe.start();

    apps::LoadSpec load;
    load.qps = scn.qps;
    load.measure = simTime(20.0);
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;
    apps::runWorld(sw, load);

    RecoveryOutcome out;
    const obs::Series &cache = *pipe.store().find("posts-memcached");
    const obs::Series &entry = *pipe.store().find(app.entry());
    for (std::size_t i = 0; i < cache.size(); ++i) {
        CurvePoint p;
        p.t = ticksToSec(cache.at(i).end) / timeScale();
        p.hitRatio = cache.at(i).hitRatio;
        p.lookups = cache.at(i).cacheLookups;
        p.entryP99Ms = ticksToMs(entry.at(i).p99);
        out.curve.push_back(p);
    }

    // Pre-crash baseline, then recovery = crash start until two
    // consecutive samples are back within 90% of it (one sample can
    // flatter a cold store that merely got lucky).
    double sum = 0.0;
    unsigned n = 0;
    for (const CurvePoint &p : out.curve)
        if (p.t > 2.0 && p.t <= kCrashStartSec && p.lookups > 0) {
            sum += p.hitRatio;
            ++n;
        }
    out.baseline = n ? sum / n : 0.0;
    const double bar = 0.9 * out.baseline;
    for (std::size_t i = 0; i + 1 < out.curve.size(); ++i) {
        const CurvePoint &a = out.curve[i];
        const CurvePoint &b = out.curve[i + 1];
        if (a.t <= kCrashStartSec)
            continue;
        if (a.lookups > 0 && a.hitRatio >= bar && b.lookups > 0 &&
            b.hitRatio >= bar) {
            out.recoverySec = a.t - kCrashStartSec;
            break;
        }
    }

    const data::CacheStats st =
        app.service("posts-memcached").dataStats();
    out.coldRestarts = st.coldRestarts;
    if (replicated) {
        out.failovers =
            app.metrics()
                .counter("replica.posts-memcached.failovers")
                .value();
        out.logTrims =
            app.metrics()
                .counter("replica.posts-memcached.log_trims")
                .value();
    }
    return out;
}

void
printRecovery(const RecoveryOutcome &r, const char *label)
{
    TextTable table({"t(s)", "posts-mc hit %", "lookups",
                     "entry p99(ms)"});
    for (const CurvePoint &p : r.curve) {
        // The 0.25s sampling grain feeds the recovery metric; the
        // printed table keeps the 1s rows readable.
        const double frac = p.t - static_cast<double>(
                                      static_cast<long>(p.t));
        if (frac > 0.01)
            continue;
        table.add(fmtDouble(p.t, 0), fmtDouble(100.0 * p.hitRatio, 1),
                  p.lookups, fmtDouble(p.entryP99Ms, 2));
    }
    printBanner(std::cout, label);
    table.print(std::cout);
    std::cout << "cold restarts=" << r.coldRestarts
              << "; failovers=" << r.failovers
              << "; log trims=" << r.logTrims << "; recovery="
              << (r.recoverySec > 0.0
                      ? fmtDouble(r.recoverySec, 2) + "s"
                      : std::string("(not within window)"))
              << " after the crash hit\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    double min_speedup = 0.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&] {
            if (i + 1 >= argc)
                fatal(strCat("missing value for ", a));
            return std::string(argv[++i]);
        };
        if (a == "--out")
            out_path = need();
        else if (a == "--min-failover-speedup")
            min_speedup = std::atof(need().c_str());
        else
            fatal(strCat("unknown option '", a, "'"));
    }

    header("Fig 20: recovery from QoS violation with autoscaling",
           "microservices take much longer than the monolith to recover "
           "because the autoscaler upsizes saturated-looking tiers that "
           "are not the culprit");
    runDesign(true, "Monolith + autoscaler");
    runDesign(false, "Microservices + autoscaler");

    // Replicated panel: the same leader crash, with and without the
    // replica layer. Failover inherits the warm store; the cold
    // restart has to re-learn the hot set from the database.
    const RecoveryOutcome cold = runCacheRecovery(false);
    const RecoveryOutcome warm = runCacheRecovery(true);
    printRecovery(cold,
                  "Unreplicated: cold-cache warm-up after a "
                  "posts-memcached crash (down t=6s..8s)");
    printRecovery(warm,
                  "Replicated (factor 2, W=1): leader failover with "
                  "log catch-up, same crash window");

    const double window = 20.0 - kCrashStartSec; // recovery bound
    const double cold_eff =
        cold.recoverySec > 0.0 ? cold.recoverySec : window;
    const double speedup =
        warm.recoverySec > 0.0 ? cold_eff / warm.recoverySec : 0.0;
    std::cout << "\nfailover recovery speedup over cold restart: "
              << (warm.recoverySec > 0.0
                      ? fmtDouble(speedup, 1) + "x"
                      : std::string("(never recovered)"))
              << "\n";

    json::Writer w;
    w.beginObject();
    w.field("bench", "fig20_recovery_replicated");
    w.field("crash_start_s", kCrashStartSec);
    w.field("crash_dur_s", kCrashDurSec);
    w.field("speedup", speedup);
    auto emit = [&w](const char *name, const RecoveryOutcome &r) {
        w.beginObject(name);
        w.field("baseline_hit_ratio", r.baseline);
        w.field("recovery_s", r.recoverySec);
        w.field("cold_restarts", r.coldRestarts);
        w.field("failovers", r.failovers);
        w.field("log_trims", r.logTrims);
        w.beginArray("curve");
        for (const CurvePoint &p : r.curve) {
            w.beginObject();
            w.field("t_s", p.t);
            w.field("hit_ratio", p.hitRatio);
            w.field("lookups", p.lookups);
            w.field("entry_p99_ms", p.entryP99Ms);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    };
    emit("cold", cold);
    emit("replicated", warm);
    w.endObject();
    const std::string doc = w.str() + "\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal(strCat("cannot open '", out_path,
                         "' for writing"));
        out << doc;
        std::cout << "wrote " << out_path << "\n";
    }

    if (min_speedup > 0.0 &&
        (warm.recoverySec <= 0.0 || speedup < min_speedup)) {
        std::cerr << "FAIL: replicated failover recovered "
                  << (warm.recoverySec > 0.0
                          ? fmtDouble(speedup, 2) + "x"
                          : std::string("never"))
                  << " vs the cold restart, below the "
                  << "--min-failover-speedup gate of " << min_speedup
                  << "x\n";
        return 1;
    }
    return 0;
}
