/**
 * @file
 * Example: migrating an end-to-end service to a serverless platform
 * (Sec 7 / Fig 21). Takes the Banking System, rewrites it for
 * Lambda-style execution with S3 vs remote-memory state passing, and
 * prints the latency/cost trade-off against reserved containers.
 *
 *   $ ./build/examples/serverless_migration
 */

#include <iostream>

#include "apps/banking.hh"
#include "core/table.hh"
#include "serverless/platform.hh"
#include "workload/load_sweep.hh"

using namespace uqsim;

namespace {

struct RunResult
{
    Tick p50, p95;
    double costPer10Min;
};

RunResult
run(bool lambda, serverless::StateStoreKind store)
{
    apps::WorldConfig config;
    config.workerServers = 5;
    apps::World world(config);
    apps::buildBanking(world);

    serverless::LambdaConfig lcfg;
    lcfg.stateStore = store;
    if (lambda)
        serverless::LambdaPlatform::applyToApp(*world.app, lcfg,
                                               world.cluster);

    workload::runLoad(*world.app, 250.0, secToTicks(1.0),
                      secToTicks(4.0),
                      workload::QueryMix::fromApp(*world.app),
                      workload::UserPopulation::uniform(1000), 5);

    RunResult r;
    const QuantileSketch e2e = world.app->endToEndLatency();
    r.p50 = e2e.p50();
    r.p95 = e2e.p95();
    const Tick window = secToTicks(600.0);
    if (!lambda) {
        r.costPer10Min = serverless::Ec2CostModel{}.cost(56, window);
    } else {
        serverless::LambdaCostModel cost;
        const auto invocations =
            serverless::LambdaPlatform::invocations(*world.app,
                                                    lcfg.storeName);
        const auto billed = serverless::LambdaPlatform::billedDuration(
            *world.app, cost, lcfg.storeName);
        r.costPer10Min = cost.cost(invocations, billed) * 150.0;
        if (store == serverless::StateStoreKind::RemoteMemory)
            r.costPer10Min +=
                serverless::Ec2CostModel{}.cost(4, window);
    }
    return r;
}

} // namespace

int
main()
{
    TextTable table(
        {"platform", "p50(ms)", "p95(ms)", "cost $/10min"});
    const RunResult ec2 =
        run(false, serverless::StateStoreKind::S3);
    table.add("Amazon EC2 (reserved)", fmtDouble(ticksToMs(ec2.p50), 1),
              fmtDouble(ticksToMs(ec2.p95), 1),
              fmtDouble(ec2.costPer10Min, 1));
    const RunResult s3 = run(true, serverless::StateStoreKind::S3);
    table.add("AWS Lambda (S3 state)", fmtDouble(ticksToMs(s3.p50), 1),
              fmtDouble(ticksToMs(s3.p95), 1),
              fmtDouble(s3.costPer10Min, 1));
    const RunResult mem =
        run(true, serverless::StateStoreKind::RemoteMemory);
    table.add("AWS Lambda (memory state)",
              fmtDouble(ticksToMs(mem.p50), 1),
              fmtDouble(ticksToMs(mem.p95), 1),
              fmtDouble(mem.costPer10Min, 1));

    std::cout << "Banking System across deployment platforms:\n";
    table.print(std::cout);
    std::cout << "\nTake-aways (Sec 7): S3 state passing dominates "
                 "function latency; remote memory recovers most of it; "
                 "per-request billing is far cheaper than reserved "
                 "instances at this load.\n";
    return 0;
}
