#include "apps/builder.hh"

#include "apps/profiles.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace uqsim::apps {

World::World(WorldConfig config)
    : engine_(std::make_unique<ParallelSimulator>(
          ParallelSimulator::Config{})),
      ctx(engine_->context(0)), cluster(ctx), config_(std::move(config))
{
    build();
}

World::World(WorldConfig config, SimContext shard_ctx)
    : ctx(shard_ctx), cluster(ctx), config_(std::move(config))
{
    build();
}

void
World::build()
{
    if (config_.workerServers == 0)
        fatal("World with no worker servers");
    cluster.addServers(config_.workerServers, config_.coreModel);

    // The client machine: plenty of fast cores so client-side protocol
    // processing never limits offered load.
    cpu::CoreModel client_model = cpu::CoreModel::xeon();
    client_model.name = "client";
    client_model.coresPerServer = 64;
    client_model.nominalFreqMhz = 3000.0;
    client_ = &cluster.addServer(client_model);

    Rng root(config_.seed);
    network = std::make_unique<net::Network>(ctx, config_.netConfig,
                                             root.fork());
    app = std::make_unique<service::App>(ctx, cluster, *network,
                                         config_.appConfig, root.next());
    app->setClientServer(*client_);
}

cpu::Server &
World::nextWorker()
{
    cpu::Server &s = cluster.server(
        static_cast<unsigned>(cursor_ % config_.workerServers));
    ++cursor_;
    return s;
}

cpu::Server &
World::worker(unsigned idx)
{
    if (idx >= config_.workerServers)
        panic(strCat("worker(", idx, ") out of range"));
    return cluster.server(idx);
}

Dist
computeUs(double mean_us, double sigma)
{
    // ~0.6 IPC x 2.4 GHz = 1440 cycles per microsecond of work on the
    // reference platform.
    return Dist::lognormalMean(mean_us * 1440.0, sigma).clampedMin(500.0);
}

Dist
computeUsConst(double us)
{
    return Dist::constant(us * 1440.0);
}

service::Microservice &
addLogicTier(World &w, service::ServiceDef def, unsigned instances)
{
    service::Microservice &svc = w.app->addService(std::move(def));
    for (unsigned i = 0; i < std::max(1u, instances); ++i)
        svc.addInstance(w.nextWorker());
    return svc;
}

service::Microservice &
addCacheTier(World &w, const std::string &name, unsigned shards,
             double mean_us)
{
    service::ServiceDef def;
    def.name = name;
    def.profile = memcachedProfile(name);
    def.kind = service::ServiceKind::Cache;
    def.threadsPerInstance = 32;
    def.handler.compute(computeUs(mean_us, 0.4));
    def.defaultRequestBytes = 128;
    def.defaultResponseBytes = 2048;
    service::Microservice &svc = w.app->addService(std::move(def));
    for (unsigned i = 0; i < std::max(1u, shards); ++i)
        svc.addInstance(w.nextWorker());
    return svc;
}

service::Microservice &
addMongoTier(World &w, const std::string &name, unsigned shards,
             double mean_us)
{
    service::ServiceDef def;
    def.name = name;
    def.profile = mongodbProfile(name);
    def.kind = service::ServiceKind::Database;
    def.threadsPerInstance = 32;
    def.handler.compute(computeUs(mean_us, 0.6));
    def.defaultRequestBytes = 512;
    def.defaultResponseBytes = 4096;
    service::Microservice &svc = w.app->addService(std::move(def));
    for (unsigned i = 0; i < std::max(1u, shards); ++i)
        svc.addInstance(w.nextWorker());
    return svc;
}

service::Microservice &
addMysqlTier(World &w, const std::string &name, unsigned shards,
             double mean_us)
{
    service::ServiceDef def;
    def.name = name;
    def.profile = mysqlProfile(name);
    def.kind = service::ServiceKind::Database;
    def.threadsPerInstance = 32;
    def.handler.compute(computeUs(mean_us, 0.6));
    def.defaultRequestBytes = 512;
    def.defaultResponseBytes = 4096;
    service::Microservice &svc = w.app->addService(std::move(def));
    for (unsigned i = 0; i < std::max(1u, shards); ++i)
        svc.addInstance(w.nextWorker());
    return svc;
}

void
tightenStatefulTiers(service::App &app, double cache_cost_scale,
                     unsigned cache_threads, double db_cost_scale,
                     unsigned db_threads)
{
    for (service::Microservice *svc : app.services()) {
        const auto kind = svc->def().kind;
        double scale = 1.0;
        unsigned threads = 0;
        if (kind == service::ServiceKind::Cache) {
            scale = cache_cost_scale;
            threads = cache_threads;
        } else if (kind == service::ServiceKind::Database) {
            scale = db_cost_scale;
            threads = db_threads;
        } else {
            continue;
        }
        for (service::Stage &st : svc->mutableDef().handler.stages)
            if (st.kind == service::Stage::Kind::Compute)
                st.computeCycles = st.computeCycles.scaled(scale);
        if (threads > 0)
            svc->setThreadsPerInstance(threads);
    }
}

void
throttleLogicTiers(service::App &app, unsigned frontend_threads,
                   unsigned logic_threads)
{
    for (service::Microservice *svc : app.services()) {
        const auto kind = svc->def().kind;
        if (kind == service::ServiceKind::Frontend)
            svc->setThreadsPerInstance(frontend_threads);
        else if (kind == service::ServiceKind::Stateless)
            svc->setThreadsPerInstance(logic_threads);
    }
}

} // namespace uqsim::apps
