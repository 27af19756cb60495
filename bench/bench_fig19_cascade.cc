/**
 * @file
 * Fig 19: cascading QoS violations in the Social Network. A back-end
 * hotspot (the server hosting the post/timeline storage shards slows
 * down) propagates upstream tier by tier until the front-end violates
 * QoS, while per-tier CPU utilization stays misleading: high-utilization
 * middle tiers are healthy and low-utilization tiers are the ones
 * blocked on the saturated back-end.
 */

#include <algorithm>
#include <map>

#include "bench_common.hh"
#include "obs/culprit.hh"
#include "obs/pipeline.hh"
#include "trace/analysis.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

/** Order tiers back-end (top) to front-end (bottom), as in the figure. */
const std::vector<std::string> kTierOrder = {
    "posts-db",      "timeline-db",   "posts-memcached",
    "timeline-memcached", "writeTimeline", "postsStorage",
    "readPost",      "readTimeline",  "composePost",
    "php-fpm",       "nginx-lb",
};

} // namespace

int
main()
{
    header("Fig 19: cascading QoS violations",
           "a back-end hotspot propagates to the front-end; utilization "
           "is misleading (high-util middle tiers are not the culprits)");

    auto w = makeWorld(6);
    apps::AppOptions opt;
    opt.instancesPerTier = 1;
    apps::buildSocialNetwork(*w, opt);
    service::App &app = *w->app;

    // The online observability pipeline watches the run: an SLO on
    // end-to-end latency plus per-tier interval series, which feed the
    // latency panel and let the localizer answer "which tier degraded
    // first" afterwards.
    obs::PipelineConfig pc;
    pc.interval = secToTicks(1.0);
    pc.ring = 256;
    pc.slo.latency = 20 * kTicksPerMs;
    pc.slo.window = 3;
    obs::Pipeline pipe(app, pc);
    pipe.start();

    workload::OpenLoopGenerator gen(
        app, workload::QueryMix::fromApp(app),
        workload::UserPopulation::uniform(500), 3);
    gen.setQps(1400.0);
    gen.start();

    // Healthy period, then the hotspot: the server hosting the first
    // posts-db shard becomes slow (e.g. co-scheduled antagonist).
    // Occupancy is a point-in-time reading, taken from each tier as
    // the run reaches each column.
    constexpr int kHotspotSec = 60;
    const std::vector<int> columns = {30, 60, 90, 120, 150, 180};
    std::map<std::string, std::map<int, double>> occupancy;
    const unsigned hot_server =
        app.service("posts-db").instances()[0]->server().id();
    for (int t : columns) {
        w->ctx.runUntil(secToTicks(static_cast<double>(t)));
        for (const std::string &tier : kTierOrder)
            occupancy[tier][t] = app.service(tier).meanOccupancy();
        if (t == kHotspotSec)
            w->cluster.server(hot_server).setSlowFactor(14.0);
    }

    // (a) latency increase over the healthy-period median, per tier
    // over time; (b) occupancy at the same instants. One 1s sample per
    // second and a ring larger than the run: sample t-1 is the
    // interval ending at t.
    TextTable lat({"tier \\ t(s)", "30", "60", "90", "120", "150", "180"});
    TextTable util({"tier \\ t(s)", "30", "60", "90", "120", "150", "180"});
    for (const std::string &tier : kTierOrder) {
        const obs::Series &series = *pipe.store().find(tier);
        std::vector<double> healthy;
        for (std::size_t i = 0; i < kHotspotSec; ++i)
            if (series.at(i).count > 0)
                healthy.push_back(series.at(i).meanLatencyNs);
        std::sort(healthy.begin(), healthy.end());
        const double baseline =
            healthy.empty() ? 0.0 : healthy[healthy.size() / 2];
        std::vector<std::string> lrow{tier}, urow{tier};
        for (int t : columns) {
            urow.push_back(fmtDouble(100.0 * occupancy[tier][t], 0) + "%");
            if (baseline <= 0.0) {
                lrow.push_back("-");
                continue;
            }
            const double incr =
                100.0 * (series.at(t - 1).meanLatencyNs / baseline - 1.0);
            lrow.push_back(fmtDouble(std::max(0.0, incr), 0) + "%");
        }
        lat.addRow(lrow);
        util.addRow(urow);
    }
    printBanner(std::cout,
                "(a) latency increase vs baseline (hotspot at t=60s, "
                "back-end rows on top)");
    lat.print(std::cout);
    printBanner(std::cout,
                "(b) per-tier utilization (worker-thread occupancy)");
    util.print(std::cout);
    std::cout << "\nExpect the latency hotspot to start in the top rows "
                 "after t=60s and spread downward to nginx-lb, while "
                 "utilization alone cannot identify posts-db as the "
                 "culprit.\n";

    // (c) What the interval series say: the end-to-end SLO trips some
    // time after the hotspot, and the culprit localizer ranks tiers by
    // degradation onset — the tiers hosted on the slow server must
    // lead, with positive lead time over the user-visible violation.
    printBanner(std::cout, "(c) slo violation and culprit ranking");
    if (!pipe.slo().violated()) {
        std::cout << "no SLO violation recorded (unexpected)\n";
        return 1;
    }
    const obs::SloViolation &v = pipe.slo().violations().front();
    std::cout << "e2e p99 SLO (20ms) tripped at t="
              << fmtDouble(ticksToSec(v.time), 0) << "s (onset t="
              << fmtDouble(ticksToSec(v.onset), 0) << "s; hotspot at "
              << "t=60s on server " << hot_server << ")\n";
    trace::TraceAnalysis ta(app.traceStore());
    obs::CulpritLocalizer loc(pipe.store());
    const auto ranking =
        loc.localize(pipe.slo().firstViolationTime(),
                     obs::CulpritLocalizer::tierDepths(app),
                     ta.criticalPathBreakdown());
    std::cout << obs::culpritTable(ranking);
    if (!ranking.empty()) {
        const std::string &top = ranking.front().tier;
        const unsigned top_server = app.service(top)
                                        .instances()[0]
                                        ->server()
                                        .id();
        std::cout << "top culprit: " << top << " (hosted on server "
                  << top_server << ", hot server is " << hot_server
                  << ")\n";
    }
    return 0;
}
