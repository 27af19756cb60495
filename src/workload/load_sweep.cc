#include "workload/load_sweep.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim::workload {

LoadResult
runLoad(service::App &app, double qps, Tick warmup, Tick measure,
        const QueryMix &mix, const UserPopulation &users,
        std::uint64_t seed)
{
    SimContext &sim = app.ctx();
    OpenLoopGenerator gen(app, mix, users, seed);
    gen.setQps(qps);
    gen.start();
    sim.runFor(warmup);
    app.statReset();
    const Tick t0 = sim.now();
    sim.runFor(measure);
    gen.stop();
    // Give in-flight requests a bounded drain window so completions
    // near the edge are not lost (open-loop: new arrivals stopped).
    // Rates are computed over the arrival window only: the drained
    // completions belong to arrivals inside [t0, t0+measure).
    sim.runFor(measure / 5);
    (void)t0;
    const double span_sec = ticksToSec(measure);

    LoadResult r;
    r.offeredQps = qps;
    r.completed = app.completed();
    r.dropped = app.droppedRequests();
    const QuantileSketch h = app.endToEndLatency();
    r.p50 = h.p50();
    r.p95 = h.p95();
    r.p99 = h.p99();
    r.meanMs = ticksToMs(static_cast<Tick>(h.mean()));
    r.achievedQps =
        span_sec > 0.0 ? static_cast<double>(r.completed) / span_sec : 0.0;
    r.goodputQps = span_sec > 0.0
                       ? static_cast<double>(app.completedWithinQos()) /
                             span_sec
                       : 0.0;
    r.meanUtilization = app.cluster().averageUtilization();
    const double net = app.meanNetworkTimePerRequest();
    const double comp = app.meanAppTimePerRequest();
    r.networkShare = (net + comp) > 0.0 ? net / (net + comp) : 0.0;
    return r;
}

double
findMaxQps(const std::function<bool(double)> &feasible, double lo,
           double hi, int iterations)
{
    if (hi <= lo)
        fatal("findMaxQps with hi <= lo");
    if (!feasible(lo))
        return lo;
    if (feasible(hi))
        return hi;
    double good = lo, bad = hi;
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (good + bad);
        if (feasible(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

} // namespace uqsim::workload
