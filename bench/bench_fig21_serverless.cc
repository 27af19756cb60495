/**
 * @file
 * Fig 21: performance and cost of the end-to-end services on
 * reserved containers (EC2) vs AWS-Lambda-style functions with S3 or
 * remote-memory state passing (top), and tail latency under a
 * compressed diurnal load for EC2-with-autoscaler vs Lambda (bottom),
 * replayed over five arrival seeds.
 */

#include <algorithm>
#include <vector>

#include "bench_common.hh"
#include "manager/autoscaler.hh"
#include "serverless/platform.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

struct Percentiles
{
    Tick p5, p25, p50, p75, p95;
};

Percentiles
pct(const QuantileSketch &h)
{
    return {h.quantile(0.05), h.quantile(0.25), h.quantile(0.50),
            h.quantile(0.75), h.quantile(0.95)};
}

std::string
boxRow(const Percentiles &p)
{
    return strCat(fmtDouble(ticksToMs(p.p5), 1), " / ",
                  fmtDouble(ticksToMs(p.p25), 1), " / ",
                  fmtDouble(ticksToMs(p.p50), 1), " / ",
                  fmtDouble(ticksToMs(p.p75), 1), " / ",
                  fmtDouble(ticksToMs(p.p95), 1));
}

void
topPanel()
{
    TextTable table({"Service", "Platform", "lat p5/p25/p50/p75/p95 (ms)",
                     "cost ($ / 10min)"});
    const serverless::Ec2CostModel ec2_cost;
    const serverless::LambdaCostModel lambda_cost;
    const Tick window = secToTicks(600.0); // the paper's 10 minutes

    struct Pt
    {
        apps::AppId id;
        double qps;
        unsigned ec2Instances; // paper: 20-64 m5.12xlarge per service
    };
    // EC2 fleet sizes back-derived from the paper's 10-minute costs
    // (m5.12xlarge at $2.304/h): $28.8 / $24.1 / $37.6 / $21.6 / $14.8.
    for (const Pt &pt : {Pt{apps::AppId::SocialNetwork, 300, 75},
                         Pt{apps::AppId::MediaService, 250, 63},
                         Pt{apps::AppId::Ecommerce, 250, 98},
                         Pt{apps::AppId::Banking, 250, 56},
                         Pt{apps::AppId::SwarmCloud, 10, 39}}) {
        // EC2: reserved containers.
        {
            auto w = makeWorld(5);
            apps::buildApp(*w, pt.id);
            drive(*w->app, pt.qps, 1.0, 4.0);
            table.add(apps::appName(pt.id), "Amazon EC2",
                      boxRow(pct(w->app->endToEndLatency())),
                      fmtDouble(ec2_cost.cost(pt.ec2Instances, window), 1));
        }
        // Lambda with S3 / remote-memory state passing.
        for (auto store : {serverless::StateStoreKind::S3,
                           serverless::StateStoreKind::RemoteMemory}) {
            auto w = makeWorld(5);
            apps::buildApp(*w, pt.id);
            serverless::LambdaConfig cfg;
            cfg.stateStore = store;
            cfg.storeShards = 16;
            serverless::LambdaPlatform::applyToApp(*w->app, cfg,
                                                   w->cluster);
            drive(*w->app, pt.qps, 1.0, 4.0);
            const std::uint64_t invocations =
                serverless::LambdaPlatform::invocations(*w->app,
                                                        cfg.storeName);
            const Tick billed = serverless::LambdaPlatform::billedDuration(
                *w->app, lambda_cost, cfg.storeName);
            // Scale measured cost to the 10-minute window.
            const double scale =
                ticksToSec(window) / (4.0 * timeScale());
            double cost =
                lambda_cost.cost(invocations, billed) * scale;
            std::string platform = store == serverless::StateStoreKind::S3
                                       ? "AWS Lambda (S3)"
                                       : "AWS Lambda (mem)";
            if (store == serverless::StateStoreKind::RemoteMemory)
                cost += ec2_cost.cost(4, window); // the 4 extra instances
            table.add(apps::appName(pt.id), platform,
                      boxRow(pct(w->app->endToEndLatency())),
                      fmtDouble(cost, 1));
        }
    }
    printBanner(std::cout, "EC2 vs Lambda: latency and cost");
    table.print(std::cout);
    std::cout << "Paper costs for 10min (Social Network): EC2 $28.8, "
                 "Lambda(S3) $2.85, Lambda(mem) $3.93 - about an order "
                 "of magnitude cheaper on Lambda.\n";
}

/** What one diurnal replay peaked at, and its EC2 fleet at the end. */
struct DiurnalPeaks
{
    double ec2P99Ms = 0.0;
    double lambdaP99Ms = 0.0;
    unsigned ec2InstancesAtEnd = 0;
};

/**
 * Replay the compressed day through EC2 with its autoscaler and
 * through Lambda, both drawing their arrival instants from diurnal
 * ShapedProcess seed @p arrival_seed; when @p table is given, add one
 * row per 20 s interval to it.
 */
DiurnalPeaks
replayDay(std::uint64_t arrival_seed, TextTable *table)
{
    const double base_qps = 3600.0;
    const workload::DiurnalShape shape(secToTicks(240.0), 0.12);
    // Both worlds replay the same arrival instants: each generator
    // draws its gaps from its own copy of one seeded diurnal process
    // (the generators' query and user draws stay on seed 3).
    const auto diurnal = [&] {
        return std::make_unique<workload::ShapedProcess>(
            base_qps, workload::ArrivalKind::Diurnal,
            [shape](Tick t) { return shape.at(t); },
            shape.meanMultiplier(), arrival_seed);
    };

    // -- EC2: fixed containers + reactive autoscaler -------------------
    // Balanced provisioning: at the diurnal peak the initial fleet is
    // undersized, so the autoscaler must chase the ramps.
    auto ec2 = makeWorld(8);
    apps::buildSocialNetwork(*ec2);
    apps::throttleLogicTiers(*ec2->app, 24, 2);
    manager::AutoScaler::Config cfg;
    cfg.threshold = 0.7;
    cfg.interval = secToTicks(5.0);
    cfg.startupDelay = secToTicks(60.0); // EC2 instance boot time
    cfg.cooldown = secToTicks(10.0);
    manager::AutoScaler scaler(*ec2->app, cfg,
                               [&]() -> cpu::Server & {
                                   return ec2->nextWorker();
                               });
    scaler.watchAllStateless();
    scaler.start();
    workload::OpenLoopGenerator gen_ec2(
        *ec2->app, workload::QueryMix::fromApp(*ec2->app),
        workload::UserPopulation::uniform(500), 3);
    gen_ec2.setArrivalProcess(diurnal());
    gen_ec2.start();

    // -- Lambda: per-request scaling -----------------------------------
    auto lam = makeWorld(8);
    apps::buildSocialNetwork(*lam);
    serverless::LambdaConfig lcfg;
    lcfg.stateStore = serverless::StateStoreKind::RemoteMemory;
    lcfg.storeShards = 16;
    lcfg.coldStartProb = 0.001; // warmed-up steady deployment
    serverless::LambdaPlatform::applyToApp(*lam->app, lcfg, lam->cluster);
    workload::OpenLoopGenerator gen_lam(
        *lam->app, workload::QueryMix::fromApp(*lam->app),
        workload::UserPopulation::uniform(500), 3);
    gen_lam.setArrivalProcess(diurnal());
    gen_lam.start();

    DiurnalPeaks peaks;
    for (int t = 20; t <= 240; t += 20) {
        const Tick now = secToTicks(static_cast<double>(t));
        ec2->app->statReset();
        lam->app->statReset();
        ec2->ctx.runUntil(now);
        lam->ctx.runUntil(now);
        unsigned instances = 0;
        for (const auto *svc : ec2->app->services())
            instances += static_cast<unsigned>(svc->instances().size());
        const double ec2_p99 =
            ticksToMs(ec2->app->endToEndLatency().p99());
        const double lam_p99 =
            ticksToMs(lam->app->endToEndLatency().p99());
        peaks.ec2P99Ms = std::max(peaks.ec2P99Ms, ec2_p99);
        peaks.lambdaP99Ms = std::max(peaks.lambdaP99Ms, lam_p99);
        peaks.ec2InstancesAtEnd = instances;
        if (table)
            table->add(t, fmtDouble(shape.at(now), 2),
                       fmtDouble(ec2_p99, 1), fmtDouble(lam_p99, 1),
                       instances);
    }
    return peaks;
}

void
diurnalPanel()
{
    printBanner(std::cout,
                "Diurnal load replay: EC2 autoscaler vs Lambda");
    // At the peak the EC2 fleet either keeps up or tips into a
    // multi-second backlog, and which one depends on the arrival
    // sample path: the first seed's day is shown in full, then the
    // peaks of every seed.
    const std::vector<std::uint64_t> seeds = {4, 5, 6, 7, 8};
    std::vector<DiurnalPeaks> peaks;
    {
        TextTable table({"t(s)", "load multiplier", "EC2 p99(ms)",
                         "Lambda p99(ms)", "EC2 instances"});
        peaks.push_back(replayDay(seeds.front(), &table));
        std::cout << "Arrival seed " << seeds.front() << ":\n";
        table.print(std::cout);
    }
    for (std::size_t i = 1; i < seeds.size(); ++i)
        peaks.push_back(replayDay(seeds[i], nullptr));

    TextTable by_seed({"arrival seed", "peak EC2 p99(ms)",
                       "peak Lambda p99(ms)", "EC2 instances at 240s"});
    std::vector<double> ec2;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        by_seed.add(seeds[i], fmtDouble(peaks[i].ec2P99Ms, 1),
                    fmtDouble(peaks[i].lambdaP99Ms, 1),
                    peaks[i].ec2InstancesAtEnd);
        ec2.push_back(peaks[i].ec2P99Ms);
    }
    std::sort(ec2.begin(), ec2.end());
    std::cout << "Peaks over " << seeds.size() << " arrival seeds:\n";
    by_seed.print(std::cout);
    std::cout << "Peak EC2 p99 over the seeds: min "
              << fmtDouble(ec2.front(), 1) << " ms, median "
              << fmtDouble(ec2[ec2.size() / 2], 1) << " ms, max "
              << fmtDouble(ec2.back(), 1) << " ms.\n";
    std::cout << "Expect Lambda to track the ramps (cold starts aside) "
                 "while the EC2 autoscaler lags the morning/evening "
                 "surges (paper Fig 21 bottom).\n";
}

} // namespace

int
main()
{
    header("Fig 21: serverless (EC2 vs AWS Lambda)",
           "Lambda+S3 much slower (state passing), Lambda+mem close to "
           "EC2; Lambda ~an order of magnitude cheaper; Lambda tracks "
           "diurnal ramps faster than the EC2 autoscaler");
    topPanel();
    diurnalPanel();
    return 0;
}
