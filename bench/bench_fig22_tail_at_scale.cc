/**
 * @file
 * Fig 22: tail-at-scale effects on the Social Network.
 *  (a) Cascading hotspots from a routing misconfiguration that funnels
 *      all composePost/readPost traffic to single instances; recovery
 *      through rate limiting.
 *  (b) Max load meeting QoS as request skew grows ([100-u] where u% of
 *      users issue 90% of requests).
 *  (c) Goodput as a fraction of servers is slow, for microservices vs
 *      monolith across cluster sizes.
 */

#include <fstream>

#include "apps/scenario.hh"
#include "bench_common.hh"
#include "core/json.hh"
#include "obs/pipeline.hh"
#include "service/admission.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

// ---- (a) routing misconfiguration + rate limiting --------------------

void
panelA()
{
    auto w = makeWorld(8);
    apps::AppOptions opt;
    opt.instancesPerTier = 3;
    opt.frontendInstances = 3;
    apps::buildSocialNetwork(*w, opt);
    service::App &app = *w->app;
    // Balanced provisioning: the two misrouted tiers run with worker
    // pools sized for 1/3rd of the traffic each instance normally sees.
    app.service("composePost").setThreadsPerInstance(2);
    app.service("readPost").setThreadsPerInstance(1);

    obs::PipelineConfig pc;
    pc.interval = secToTicks(5.0);
    obs::Pipeline pipe(app, pc);
    pipe.start();
    // Admission in front of the inject path: a token bucket of depth
    // 32, unlimited until the operators step in.
    constexpr double kBurst = 32.0;
    service::TokenBucket limiter(0.0, kBurst);
    std::uint64_t rejected = 0;

    Rng rng(11);
    workload::QueryMix mix = workload::QueryMix::fromApp(app);
    workload::UserPopulation users = workload::UserPopulation::zipf(500,
                                                                    0.9);
    const double qps = 3000.0;
    std::function<void()> arrivals = [&]() {
        // The user draw comes first; the arrival stream depends on it.
        const std::uint64_t user = users.sample(rng);
        const unsigned query = mix.sample(rng);
        if (limiter.unlimited() || limiter.tryAcquire(w->ctx.now(), 1.0))
            app.inject(query, user);
        else
            ++rejected;
        const Tick gap = std::max<Tick>(
            1, static_cast<Tick>(
                   rng.exponential(static_cast<double>(kTicksPerSec) /
                                   qps)));
        w->ctx.schedule(gap, arrivals);
    };
    w->ctx.schedule(1, arrivals);

    TextTable table({"t(s)", "entry p99(ms)", "composePost p99(ms)",
                     "readPost p99(ms)", "rejected", "drops"});
    auto p99Ms = [&pipe](const std::string &tier) {
        return ticksToMs(pipe.store().find(tier)->latest().p99);
    };
    std::uint64_t last_rejected = 0;
    for (int t = 20; t <= 280; t += 20) {
        // Fault/recovery schedule around the stepped execution.
        if (t == 80) {
            // Switch routing misconfiguration overloads one instance
            // of composePost and readPost (t=60s in the figure).
            app.service("composePost").setRouteMisconfigured(true);
            app.service("readPost").setRouteMisconfigured(true);
        }
        if (t == 180) {
            // Operators rate-limit admitted traffic and fix routing.
            limiter = service::TokenBucket(800.0, kBurst);
            app.service("composePost").setRouteMisconfigured(false);
            app.service("readPost").setRouteMisconfigured(false);
        }
        if (t == 240) // limits lifted once queues drain
            limiter = service::TokenBucket(0.0, kBurst);
        w->ctx.runUntil(secToTicks(static_cast<double>(t)));
        table.add(t, fmtDouble(p99Ms(app.entry()), 1),
                  fmtDouble(p99Ms("composePost"), 2),
                  fmtDouble(p99Ms("readPost"), 2), rejected - last_rejected,
                  app.droppedRequests());
        last_rejected = rejected;
    }
    printBanner(std::cout,
                "(a) routing misconfiguration at t=80s; rate limiting + "
                "fix at t=180s; limits lifted at t=240s");
    table.print(std::cout);
}

// ---- (b) request skew -------------------------------------------------

void
panelB()
{
    TextTable table({"skew %", "max QPS at QoS", "normalized"});
    double base = 0.0;
    for (double skew : {0.0, 20.0, 50.0, 80.0, 90.0, 99.0}) {
        const double max_qps = workload::findMaxQps(
            [&](double qps) {
                auto w = makeWorld(5);
                apps::AppOptions opt;
                opt.cacheShards = 8;
                opt.dbShards = 8;
                apps::buildSocialNetwork(*w, opt);
                apps::tightenStatefulTiers(*w->app, 11.0, 2, 8.0, 4);
                auto r = workload::runLoad(
                    *w->app, qps, simTime(0.8), simTime(1.6),
                    workload::QueryMix::fromApp(*w->app),
                    workload::UserPopulation::skewed(50, skew), 13);
                return r.meetsQos(w->app->config().qosLatency);
            },
            50.0, 12000.0, 6);
        if (skew == 0.0)
            base = max_qps;
        table.add(fmtDouble(skew, 0), fmtDouble(max_qps, 0),
                  fmtDouble(max_qps / std::max(1.0, base), 2));
    }
    printBanner(std::cout, "(b) max QPS under QoS vs request skew");
    table.print(std::cout);
    std::cout << "Paper: goodput collapses toward zero once <20% of "
                 "users issue the vast majority of requests.\n";
}

// ---- (c) slow servers ---------------------------------------------------

void
panelC()
{
    TextTable table({"cluster", "slow servers", "micro goodput frac",
                     "mono goodput frac"});
    for (unsigned servers : {10u, 20u, 40u}) {
        for (unsigned slow : {0u, 1u, 2u, 4u}) {
            auto frac = [&](bool monolith) {
                auto w = makeWorld(servers, 42 + servers + slow);
                apps::AppOptions opt;
                opt.instancesPerTier = std::max(1u, servers / 5);
                opt.frontendInstances = std::max(2u, servers / 4);
                opt.cacheShards = std::max(2u, servers / 5);
                opt.dbShards = std::max(2u, servers / 5);
                if (monolith)
                    apps::buildSocialNetworkMonolith(*w, opt);
                else
                    apps::buildSocialNetwork(*w, opt);
                // Balanced provisioning (Sec 3.8): tiers sized so a
                // drastically slowed instance saturates instead of
                // just running warm.
                apps::throttleLogicTiers(*w->app, 24, 8);
                // QoS sized so a slowed DB shard alone stays within budget
                // while any slowed compute instance violates it.
                w->app->setQosLatency(60 * kTicksPerMs);
                // Aggressive power management makes the affected
                // servers drastically slow (Sec 8). Start at server 2
                // so the entry load balancer itself stays healthy (the
                // paper's slow servers hit backend machines).
                for (unsigned i = 0; i < slow; ++i)
                    w->cluster.server((2 + i) % servers)
                        .setSlowFactor(300.0);
                const double qps = 120.0 * servers;
                auto r = workload::runLoad(
                    *w->app, qps, simTime(0.8), simTime(1.6),
                    workload::QueryMix::fromApp(*w->app),
                    workload::UserPopulation::uniform(1000), 17);
                return std::min(1.0, r.goodputQps /
                                         std::max(1.0, r.offeredQps));
            };
            table.add(strCat(servers, " servers"), slow,
                      fmtDouble(frac(false), 2), fmtDouble(frac(true), 2));
        }
    }
    printBanner(std::cout, "(c) goodput fraction vs slow servers");
    table.print(std::cout);
    std::cout << "Paper: >=1% slow servers push microservices goodput "
                 "toward zero at >=100 instances; the monolith only "
                 "loses the share of requests landing on slow servers "
                 "(plus shared DB shards).\n";
}

// ---- (d) keyed hot-key skew -------------------------------------------

/**
 * Keyed data tier under increasing Zipf key skew. The caches are far
 * smaller than the key universe, so the hit ratio is emergent: heavier
 * skew concentrates accesses on fewer keys (hit ratio climbs) while the
 * hottest keys hash to single cache shards (hot-shard tails). Results
 * go to the table and, with --out FILE, to a JSON series.
 */
void
panelD(const std::string &out_path)
{
    TextTable table(
        {"zipf s", "lookups", "hit %", "p50(ms)", "p99(ms)"});
    json::Writer w;
    w.beginObject();
    w.beginArray("keyed_skew");
    for (const double s : {0.9, 1.1, 1.3}) {
        apps::Scenario scn;
        scn.qps = 600.0;
        scn.dataKeys = 100000;
        scn.dataCapacity = 1024;
        scn.dataZipfS = s;
        apps::WorldHandle sw(apps::worldConfigFor(scn), 1, 1);
        apps::buildScenarioApp(sw.shard(0), scn);
        apps::LoadSpec load;
        load.qps = scn.qps;
        load.warmup = simTime(1.0);
        load.measure = simTime(4.0);
        load.users = workload::UserPopulation::uniform(scn.users);
        load.seed = scn.seed + 1;
        const auto r = apps::runWorld(sw, load);

        // Aggregate hit ratio over every keyed tier (registry counters
        // include misses on downed shards, none here).
        std::uint64_t hits = 0, misses = 0;
        service::App &app = *sw.shard(0).app;
        for (service::Microservice *svc : app.services()) {
            if (!svc->hasCacheModels())
                continue;
            MetricsRegistry &m = app.metrics();
            hits += m.counter("data." + svc->name() + ".hits").value();
            misses +=
                m.counter("data." + svc->name() + ".misses").value();
        }
        const std::uint64_t lookups = hits + misses;
        const double hit_ratio =
            lookups ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0;
        table.add(fmtDouble(s, 1), lookups,
                  fmtDouble(100.0 * hit_ratio, 1),
                  fmtDouble(ticksToMs(r.p50), 2),
                  fmtDouble(ticksToMs(r.p99), 2));
        w.beginObject();
        w.field("zipf_s", s);
        w.field("lookups", lookups);
        w.field("hit_ratio", hit_ratio);
        w.field("p50_ms", ticksToMs(r.p50));
        w.field("p99_ms", ticksToMs(r.p99));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    printBanner(std::cout,
                "(d) keyed data tier: emergent hit ratio and tail vs "
                "Zipf key skew");
    table.print(std::cout);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal(strCat("cannot open '", out_path, "' for writing"));
        out << w.str() << "\n";
        std::cout << "wrote keyed-skew series to " << out_path << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string panels = "abcd";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (a == "--panels" && i + 1 < argc)
            panels = argv[++i];
        else
            fatal(strCat("unknown argument '", a,
                         "' (want --out FILE, --panels abcd)"));
    }
    header("Fig 22: tail at scale",
           "(a) misrouting cascade + rate-limited recovery; (b) goodput "
           "collapse under skew; (c) slow servers hurt microservices "
           "far more than monoliths; (d) keyed hot-key skew");
    if (panels.find('a') != std::string::npos)
        panelA();
    if (panels.find('b') != std::string::npos)
        panelB();
    if (panels.find('c') != std::string::npos)
        panelC();
    if (panels.find('d') != std::string::npos)
        panelD(out_path);
    return 0;
}
