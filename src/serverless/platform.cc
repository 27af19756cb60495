#include "serverless/platform.hh"

#include <utility>

#include "core/distributions.hh"
#include "core/logging.hh"

namespace uqsim::serverless {

namespace {

/** Dispatch delay distribution: warm path with a cold-start mixture. */
Dist
dispatchDist(const LambdaConfig &c)
{
    const Dist warm = Dist::lognormalMean(c.dispatchMeanUs * 1000.0,
                                          c.dispatchSigma);
    if (c.coldStartProb <= 0.0)
        return warm;
    const Dist cold = Dist::lognormalMean(
        c.coldStartMeanMs * 1e6, 0.3);
    return Dist::mixture({{1.0 - c.coldStartProb, warm},
                          {c.coldStartProb, cold}});
}

/** The injected state-store tier definition. */
service::ServiceDef
storeDef(const LambdaConfig &c)
{
    service::ServiceDef def;
    def.name = c.storeName;
    def.kind = service::ServiceKind::Database;

    cpu::ServiceProfile p;
    p.name = c.storeName;
    p.codeFootprintKb = 400.0;
    p.branchEntropy = 0.15;
    p.memIntensity = 0.35;
    p.kernelShare = 0.45;
    p.libShare = 0.25;
    def.profile = p;

    if (c.stateStore == StateStoreKind::S3) {
        // Persistent object store: ~10ms per op over HTTPS, with
        // per-partition request-rate limits (few worker slots).
        def.handler.delay(Dist::lognormalMean(10.0 * 1e6, 0.5))
            .compute(Dist::constant(20000.0));
        def.threadsPerInstance = 24;
        def.protocol = rpc::ProtocolModel::restHttp1();
        def.defaultResponseBytes = 8 * kKiB;
    } else {
        // Remote memcached on extra EC2 instances: sub-ms ops.
        def.handler.delay(Dist::lognormalMean(0.35 * 1e6, 0.4))
            .compute(Dist::constant(8000.0));
        def.threadsPerInstance = 128;
        def.protocol = rpc::ProtocolModel::thrift();
        def.defaultResponseBytes = 8 * kKiB;
    }
    return def;
}

} // namespace

void
LambdaPlatform::applyToApp(service::App &app, const LambdaConfig &config,
                           cpu::Cluster &cluster)
{
    if (app.hasService(config.storeName))
        return; // already applied

    service::Microservice &store = app.addService(storeDef(config));
    for (unsigned i = 0; i < config.storeShards; ++i)
        store.addInstance(cluster.nextServerRoundRobin());

    const Dist dispatch = dispatchDist(config);

    for (service::Microservice *svc : app.services()) {
        if (svc->name() == config.storeName)
            continue;

        service::ServiceDef &def = svc->mutableDef();
        service::HandlerSpec rewritten;
        // Function dispatch: routing, container reuse or cold start.
        rewritten.delay(dispatch, /*is_network=*/true);
        // Read input state written by the upstream function (the entry
        // tier receives its input directly from the API gateway).
        if (svc->name() != app.entry())
            rewritten.call(config.storeName);
        for (const service::Stage &s : def.handler.stages)
            rewritten.add(s);
        // Persist output for downstream functions / the response path.
        rewritten.call(config.storeName);
        def.handler = std::move(rewritten);

        // The provider launches function instances on demand: per-
        // container concurrency stops being the limit.
        svc->setThreadsPerInstance(1024);
    }
}

std::uint64_t
LambdaPlatform::invocations(const service::App &app,
                            const std::string &store_name)
{
    std::uint64_t total = 0;
    for (const service::Microservice *svc :
         const_cast<service::App &>(app).services()) {
        if (svc->name() == store_name)
            continue;
        for (const auto &inst : svc->instances())
            total += inst->served();
    }
    return total;
}

Tick
LambdaPlatform::billedDuration(const service::App &app,
                               const LambdaCostModel &cost,
                               const std::string &store_name)
{
    Tick total = 0;
    for (const service::Microservice *svc :
         const_cast<service::App &>(app).services()) {
        if (svc->name() == store_name)
            continue;
        const Tick mean = static_cast<Tick>(svc->meanLatency());
        const Tick billed = cost.billedDuration(mean);
        std::uint64_t served = 0;
        for (const auto &inst : svc->instances())
            served += inst->served();
        total += billed * served;
    }
    return total;
}

} // namespace uqsim::serverless
