/**
 * @file
 * World construction and tier-building helpers shared by all six
 * end-to-end applications.
 *
 * A World bundles one scheduling context with its compute cluster,
 * network fabric and App runtime in the right construction order, plus
 * a dedicated client server that injects user requests (so client-side
 * protocol costs are modelled but never bottleneck).
 *
 * Standalone, a World owns a one-shard ParallelSimulator and is driven
 * through its `ctx`. Inside a WorldHandle (apps/scenario.hh) each World
 * is one shard and owns no engine: it is constructed with the shard's
 * SimContext, all of its components schedule into that shard's
 * queue/clock, and the handle's engine drives every shard together
 * (`ctx.run*()` drives it too). Under the Replicate
 * deployment the N worlds are independent replicas; under Partition
 * they are N identical builds of ONE graph whose tiers are pinned to
 * home shards by the placement layer, with cross-shard RPCs riding
 * SimContext::postToShard at the inter-shard wire latency.
 */

#ifndef UQSIM_APPS_BUILDER_HH
#define UQSIM_APPS_BUILDER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/distributions.hh"
#include "core/parallel.hh"
#include "core/sim_context.hh"
#include "cpu/core_model.hh"
#include "cpu/server.hh"
#include "net/network.hh"
#include "service/app.hh"

namespace uqsim::apps {

/** Configuration of one simulated deployment. */
struct WorldConfig
{
    /** Servers available for service placement. */
    unsigned workerServers = 5;

    /** Core type of every worker server. */
    cpu::CoreModel coreModel = cpu::CoreModel::xeon();

    /** Fabric parameters. */
    net::NetworkConfig netConfig{};

    /** Runtime parameters (QoS, protocols, tracing, FPGA). */
    service::App::Config appConfig{};

    /** Root seed; every stochastic component forks from it. */
    std::uint64_t seed = 42;
};

/**
 * A complete simulated deployment.
 */
class World
{
  public:
    /** A standalone world on a one-shard engine of its own. */
    explicit World(WorldConfig config = {});

    /**
     * Build this world as one shard of a larger deployment: every
     * component schedules through @p ctx, and @p ctx's engine drives
     * this world together with its other shards.
     */
    World(WorldConfig config, SimContext ctx);

    World(const World &) = delete;
    World &operator=(const World &) = delete;

  private:
    /**
     * The standalone world's engine (null inside a WorldHandle).
     * Declared before everything it drives, so callbacks still queued
     * at teardown die after the App they point into.
     */
    std::unique_ptr<ParallelSimulator> engine_;

  public:
    /** The scheduling context all of this world's components use;
     *  `ctx.run*()` drives the world. */
    SimContext ctx;

    cpu::Cluster cluster;
    std::unique_ptr<net::Network> network;
    std::unique_ptr<service::App> app;

    const WorldConfig &config() const { return config_; }

    /** The client machine (outside the worker pool). */
    cpu::Server &clientServer() { return *client_; }

    /** Next worker server, round-robin (placement helper). */
    cpu::Server &nextWorker();

    /** Worker server by index. */
    cpu::Server &worker(unsigned idx);

    /** Number of worker servers. */
    unsigned workers() const { return config_.workerServers; }

  private:
    /** Build the servers, network and App on `ctx`. */
    void build();

    WorldConfig config_;
    cpu::Server *client_ = nullptr;
    std::size_t cursor_ = 0;
};

/**
 * Scale-out options shared by the application builders.
 */
struct AppOptions
{
    /** Instances per logic tier. */
    unsigned instancesPerTier = 1;

    /** Instances of the entry tier (front-ends get more). */
    unsigned frontendInstances = 2;

    /** Shards per cache tier. */
    unsigned cacheShards = 2;

    /** Shards per database tier. */
    unsigned dbShards = 2;
};

/**
 * Convert microseconds of work on a nominal Xeon core into cycles,
 * assuming the suite-average effective IPC (~0.6 at 2.4GHz). Handler
 * compute is specified through this for readability; exact per-service
 * time additionally depends on the service's own IPC on its server.
 */
Dist computeUs(double mean_us, double sigma = 0.5);

/** Deterministic compute amount in microseconds (no variance). */
Dist computeUsConst(double us);

// -- Tier helpers -------------------------------------------------------

/** Add a logic tier with @p instances instances placed round-robin. */
service::Microservice &
addLogicTier(World &w, service::ServiceDef def, unsigned instances);

/** Add a memcached-style cache tier (@p shards shards). */
service::Microservice &
addCacheTier(World &w, const std::string &name, unsigned shards,
             double mean_us = 55.0);

/** Add a MongoDB-style persistent tier. */
service::Microservice &
addMongoTier(World &w, const std::string &name, unsigned shards,
             double mean_us = 320.0);

/** Add a MySQL-style relational tier. */
service::Microservice &
addMysqlTier(World &w, const std::string &name, unsigned shards,
             double mean_us = 450.0);

/**
 * Re-provision every stateful tier (caches and databases) of a built
 * app so the per-shard capacity is comparable to the rest of the
 * system - the paper's Sec 3.8 balanced-provisioning regime, needed
 * for the request-skew study (Fig 22b) where hot shards must be able
 * to become the bottleneck. Scales each stateful tier's compute
 * stages and overrides its worker-thread count. Call before any load.
 */
void tightenStatefulTiers(service::App &app, double cache_cost_scale,
                          unsigned cache_threads, double db_cost_scale,
                          unsigned db_threads);

/**
 * Cap the worker-thread count of every stateless/front-end tier: the
 * balanced-provisioning lever for cluster-management experiments
 * (Figs 17, 20-22), where tiers must be able to saturate at loads the
 * simulated cluster can reach. Call before any load.
 */
void throttleLogicTiers(service::App &app, unsigned frontend_threads,
                        unsigned logic_threads);

} // namespace uqsim::apps

#endif // UQSIM_APPS_BUILDER_HH
