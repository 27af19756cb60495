/**
 * @file
 * Tracing-overhead bench: the cost of always-on span collection.
 *
 * Drives the same end-to-end social-network requests (the
 * BM_SocialNetworkRequest workload) four times — tracing disabled,
 * trace-coherent sampling at 1-in-64, full always-on collection, and
 * full collection plus the online telemetry pipeline (per-tier latency
 * sketches sampled every 10ms of sim time) — and compares simulation
 * cost. Runs are timed with thread CPU time, not wall clock, so
 * preemption on a shared machine does not masquerade as overhead. The
 * ring-buffer span store is designed so full-on tracing stays under
 * 10% overhead, and the telemetry sampler must add under 10% on top of
 * that; this bench enforces both budgets (pass --non-fatal to report
 * without failing, e.g. on noisy CI machines).
 *
 *   bench_trace_overhead [--requests N] [--repeats N] [--non-fatal]
 */

#include <ctime>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "apps/social_network.hh"
#include "core/logging.hh"
#include "core/table.hh"
#include "obs/pipeline.hh"
#include "workload/load_sweep.hh"

using namespace uqsim;

namespace {

struct Mode
{
    const char *name;
    bool tracing;
    std::uint64_t sampleEvery;
    bool telemetry;
};

/** CPU time consumed by this thread, in seconds. */
double
threadSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One full run: @p requests back-to-back requests; returns seconds. */
double
runOnce(const Mode &mode, unsigned requests)
{
    apps::WorldConfig c;
    c.workerServers = 5;
    c.appConfig.tracing = mode.tracing;
    c.appConfig.traceSampleEvery = mode.sampleEvery;
    apps::World w(c);
    apps::buildSocialNetwork(w);
    std::unique_ptr<obs::Pipeline> pipe;
    if (mode.telemetry) {
        obs::PipelineConfig pc;
        pc.interval = 10 * kTicksPerMs;
        pc.slo.latency = 100 * kTicksPerMs; // keep the monitor armed
        pipe = std::make_unique<obs::Pipeline>(*w.app, pc);
        pipe->start();
    }
    workload::QueryMix mix = workload::QueryMix::fromApp(*w.app);
    workload::UserPopulation users =
        workload::UserPopulation::uniform(100);
    Rng rng(7);

    const double begin = threadSeconds();
    for (unsigned i = 0; i < requests; ++i) {
        w.app->inject(mix.sample(rng), users.sample(rng));
        w.ctx.run();
    }
    return threadSeconds() - begin;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned requests = 2000;
    unsigned repeats = 3;
    bool non_fatal = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal(strCat("missing value for ", a));
            return argv[++i];
        };
        if (a == "--requests")
            requests = static_cast<unsigned>(std::atoi(need()));
        else if (a == "--repeats")
            repeats = static_cast<unsigned>(std::atoi(need()));
        else if (a == "--non-fatal")
            non_fatal = true;
        else
            fatal(strCat("unknown option '", a, "'"));
    }
    if (requests == 0 || repeats == 0)
        fatal("--requests and --repeats must be positive");

    const Mode modes[] = {
        {"off", false, 1, false},
        {"sampled 1/64", true, 64, false},
        {"full on", true, 1, false},
        {"full on + telemetry", true, 1, true},
    };

    // Best-of-N CPU time per mode filters residual noise (cache
    // pollution from neighbors); interleave the modes so thermal drift
    // does not bias one of them.
    double best[4] = {0.0, 0.0, 0.0, 0.0};
    for (unsigned r = 0; r < repeats; ++r)
        for (int m = 0; m < 4; ++m) {
            const double secs = runOnce(modes[m], requests);
            if (r == 0 || secs < best[m])
                best[m] = secs;
        }

    printBanner(std::cout,
                strCat("tracing overhead (", std::to_string(requests),
                       " requests, best of ", std::to_string(repeats),
                       ")"));
    TextTable table({"mode", "cpu(s)", "us/request", "overhead"});
    for (int m = 0; m < 4; ++m) {
        const double over = 100.0 * (best[m] / best[0] - 1.0);
        table.add(modes[m].name, fmtDouble(best[m], 3),
                  fmtDouble(1e6 * best[m] / requests, 1),
                  fmtDouble(over, 1) + "%");
    }
    table.print(std::cout);

    const double full_overhead = 100.0 * (best[2] / best[0] - 1.0);
    const bool full_ok = full_overhead < 10.0;
    std::cout << "full-on tracing overhead: "
              << fmtDouble(full_overhead, 1) << "% (budget <10%): "
              << (full_ok ? "PASS" : "FAIL") << "\n";
    // The sampler's own cost, on top of full-on tracing: the per-event
    // clock-observer check plus the O(1) sketch updates per RPC.
    const double obs_overhead = 100.0 * (best[3] / best[2] - 1.0);
    const bool obs_ok = obs_overhead < 10.0;
    std::cout << "telemetry sampling overhead: "
              << fmtDouble(obs_overhead, 1) << "% (budget <10%): "
              << (obs_ok ? "PASS" : "FAIL") << "\n";
    if (!(full_ok && obs_ok) && !non_fatal)
        return 1;
    return 0;
}
