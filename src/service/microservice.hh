/**
 * @file
 * Microservice tiers and their instances.
 *
 * A Microservice is one node of the dependency graph (one box in the
 * paper's Figs 4-8): a profile, a handler program, a deployment kind
 * and a set of instances placed on servers. Instances own a worker
 * thread pool and a request queue; the App runtime drives them.
 */

#ifndef UQSIM_SERVICE_MICROSERVICE_HH
#define UQSIM_SERVICE_MICROSERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "core/types.hh"
#include "data/cache_model.hh"
#include "data/config.hh"
#include "data/shard_map.hh"
#include "replica/replication.hh"
#include "cpu/microarch.hh"
#include "cpu/server.hh"
#include "rpc/protocol.hh"
#include "rpc/resilience.hh"
#include "service/admission.hh"
#include "core/frame_pool.hh"
#include "service/handler.hh"
#include "service/request.hh"
#include "trace/span.hh"

namespace uqsim::service {

class App;
class Microservice;

/** One RPC attempt's pooled state (app.cc). */
struct CallFrame;
void retainFrame(CallFrame *frame) noexcept;
void releaseFrame(CallFrame *frame) noexcept;
using CallRef = FrameRef<CallFrame>;

/** Deployment/statefulness class of a tier. */
enum class ServiceKind
{
    Frontend,   ///< entry load balancer / web server
    Stateless,  ///< logic tier; any instance can serve any request
    Cache,      ///< in-memory KV store (memcached); sharded by key
    Database,   ///< persistent store (MongoDB/MySQL); sharded by key
};

/** Instance-selection policy for stateless tiers. */
enum class LbPolicy
{
    RoundRobin,         ///< classic rotation (the suite's default)
    JoinShortestQueue,  ///< route to the least-loaded active instance
};

/** @return a short printable kind name. */
std::string serviceKindName(ServiceKind kind);

/**
 * Everything needed to instantiate a microservice tier.
 */
struct ServiceDef
{
    /** Unique tier name within the application. */
    std::string name;

    /** Static microarchitectural profile (see cpu::ServiceProfile). */
    cpu::ServiceProfile profile;

    /** Per-request behaviour. */
    HandlerSpec handler;

    /** Statefulness class; drives instance selection. */
    ServiceKind kind = ServiceKind::Stateless;

    /** Worker threads per instance (concurrency limit). */
    unsigned threadsPerInstance = 16;

    /**
     * Request queue capacity per instance (read when an instance is
     * made); overflow drops.
     */
    unsigned queueCapacity = 4096;

    /** Protocol used by callers *of* this service. */
    rpc::ProtocolModel protocol = rpc::ProtocolModel::thrift();

    /**
     * Resilience policy applied by callers *of* this service
     * (deadlines, retries, breaker, shedding). Inactive by default:
     * the legacy no-failure semantics are preserved bit-for-bit.
     */
    rpc::ResiliencePolicy resilience;

    /** Load-balancing policy across instances (stateless tiers). */
    LbPolicy lbPolicy = LbPolicy::RoundRobin;

    /** Default request payload bytes when the caller gives none. */
    Bytes defaultRequestBytes = 512;

    /** Default response payload bytes. */
    Bytes defaultResponseBytes = 1024;
};

/**
 * One running copy of a microservice on a server.
 */
class Instance
{
  public:
    Instance(Microservice &svc, unsigned idx, cpu::Server &server);

    /** Owning tier. */
    Microservice &svc() { return svc_; }
    const Microservice &svc() const { return svc_; }

    /** Index within the tier. */
    unsigned index() const { return idx_; }

    /** Hosting server. */
    cpu::Server &server() { return server_; }
    const cpu::Server &server() const { return server_; }

    /**
     * Whether the instance accepts new requests (autoscaled instances
     * warm up first).
     */
    bool active() const { return active_; }
    void setActive(bool a) { active_ = a; }

    /** Free worker threads right now. */
    unsigned freeThreads() const { return freeThreads_; }

    /** Requests queued for a thread (all QoS classes). */
    std::size_t queueLength() const { return queue_.size(); }

    /**
     * RPCs in flight at this instance: admitted and not yet answered,
     * i.e. occupying a worker thread or waiting in the queue. The
     * signal queue depth alone misses — a tier can drain its queue yet
     * still be saturated thread-for-thread.
     */
    std::size_t inFlight() const;

    /** Fraction of worker threads occupied (busy or blocked). */
    double occupancy() const;

    /** Requests fully served. */
    std::uint64_t served() const { return served_; }

    /** Requests dropped on queue overflow. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Requests that terminated with a failure status at this instance
     * (injected errors, shedding, deadline refusals, crash victims).
     */
    std::uint64_t failed() const { return failed_; }

    /**
     * Crash generation: bumped every time the instance crashes so
     * continuations belonging to a previous life can detect that their
     * thread/queue state is gone.
     */
    std::uint64_t crashEpoch() const { return crashEpoch_; }

    /** Cumulative CPU busy time of this instance's compute tasks. */
    Tick cpuBusyTime() const { return cpuBusyTime_; }

  private:
    friend class App;
    friend class Microservice;

    /** A request parked in the instance queue. */
    struct Arrival
    {
        /**
         * The attempt being served: it carries the request and is
         * where the reply goes.
         */
        CallRef call;
        /**
         * The attempt's generation at arrival. Once it moved on, the
         * caller timed out or gave up, so the work can be skipped.
         */
        std::uint32_t gen = 0;
        Tick enqueued = 0;
        /** Network processing charged to this span before handling. */
        Tick preNetworkTime = 0;
    };

    Microservice &svc_;
    unsigned idx_;
    cpu::Server &server_;
    bool active_ = true;

    unsigned freeThreads_;
    /**
     * Requests waiting for a thread: one FIFO, or the QoS class queues
     * once App::enableQos installed its policy.
     */
    AdmissionQueue<Arrival> queue_;

    std::uint64_t served_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t crashEpoch_ = 0;
    Tick cpuBusyTime_ = 0;
    /** Effective IPC of the tier's code here (0 until first used). */
    double serviceIpc_ = 0.0;
};

/**
 * A handler stage with its names resolved against the app: the hot
 * path then does no string lookup or compare.
 */
struct StagePlan
{
    /** Call/cache target tier (null for other kinds). */
    Microservice *target = nullptr;
    /** Cache-miss database tier (null when none). */
    Microservice *db = nullptr;
    /** Query-tag bit the stage is gated on (0 = ungated). */
    std::uint64_t tagBit = 0;
};

/**
 * A microservice tier: definition + instances + aggregate stats.
 */
class Microservice
{
  public:
    Microservice(App &app, ServiceDef def);

    Microservice(const Microservice &) = delete;
    Microservice &operator=(const Microservice &) = delete;

    const std::string &name() const { return def_.name; }
    const ServiceDef &def() const { return def_; }
    ServiceDef &mutableDef() { return def_; }
    App &app() { return app_; }

    /**
     * Interned id of this tier's name in the app's TraceStore,
     * resolved once at construction so span recording on the hot path
     * never touches a string.
     */
    trace::ServiceId traceServiceId() const { return traceServiceId_; }

    /** Create an instance on @p server; active immediately. */
    Instance &addInstance(cpu::Server &server);

    /** All instances (active and warming). */
    const std::vector<std::unique_ptr<Instance>> &instances() const
    {
        return instances_;
    }

    /** Number of *active* instances. */
    unsigned activeInstances() const;

    /**
     * Pick the instance serving @p req: stateful tiers shard by
     * userId; stateless tiers round-robin over active instances.
     */
    Instance &selectInstance(const Request &req);

    /**
     * Crash-tolerant variant: @return nullptr instead of panicking
     * when no active instance (or the required shard) is available.
     * Used by the resilient RPC path so an outage becomes a fast
     * client-side failure rather than a simulator abort.
     */
    Instance *trySelectInstance(const Request &req);

    // -- Keyed data tier (opt-in; see src/data/) -----------------------

    /**
     * Shard this tier's key universe across its instances with a
     * consistent-hash ring. Until called, stateful tiers keep the
     * legacy userId-hash placement (digest-preserving).
     */
    void enableKeyedRouting(unsigned vnodes);
    bool keyedRouting() const { return shardMap_ != nullptr; }

    /** Ring owner index of @p key (fatal without keyed routing). */
    unsigned shardIndexForKey(std::uint64_t key) const;

    /**
     * Ring owner of @p key if it is active, nullptr otherwise — a
     * crashed shard's keys are unreachable, exactly like the legacy
     * stateful selection.
     */
    Instance *tryInstanceForKey(std::uint64_t key);

    /**
     * Give every instance a bounded keyed store (capacity per
     * instance). Later scale-outs get a fresh cold store.
     */
    void attachCacheModels(const data::CacheModelConfig &config);
    bool hasCacheModels() const { return !cacheModels_.empty(); }

    /** Instance @p idx's store (null when none attached). */
    data::CacheModel *cacheModel(unsigned idx);

    /**
     * One keyed data access against the owning shard's store.
     * @return true on a cache hit. Lookups routed to a downed shard
     * count as misses without touching (and re-warming) its store;
     * writes apply the write policy and always miss (the backing
     * store must be written regardless).
     */
    bool keyedAccess(std::uint64_t key, Tick now, bool is_write);

    /** Aggregate store accounting across instances. */
    data::CacheStats dataStats() const;

    // -- Replica groups (opt-in; see src/replica/) ---------------------

    /**
     * Layer leader/follower replica groups over the keyed stores:
     * every ring shard g becomes group g served by the factor ring
     * successors, with the group's logical store pinned to model slot
     * g. Requires keyed routing and attached cache models; fatal when
     * called twice or on a tier that later grows (replicated tiers are
     * provisioned up-front).
     */
    void enableReplication(const replica::ReplicationConfig &config);
    bool replicated() const { return replicas_ != nullptr; }

    /** The group state machine (null while unreplicated). */
    replica::ReplicaSet *replicaSet() { return replicas_.get(); }
    const replica::ReplicaSet *replicaSet() const
    {
        return replicas_.get();
    }

    /** Outcome of one replicated stage-time store access. */
    struct ReplicatedAccess
    {
        /** Read served from the group store and hit. */
        bool hit = false;

        /** Write: simulated wait until the quorum ack. */
        Tick quorumDelay = 0;

        /** Typed reject when the group cannot serve right now. */
        trace::SpanStatus status = trace::SpanStatus::Ok;
    };

    /**
     * One keyed access through the replica layer: owed maintenance
     * (failover trim / total-loss clear) is applied to the group
     * store first, then the route decision is made and — when
     * servable — the access lands on the group's pinned store.
     */
    ReplicatedAccess replicatedAccess(std::uint64_t key, Tick now,
                                      bool is_write);

    /**
     * Attempt-time instance resolution for a keyed RPC. Unreplicated
     * tiers: the ring owner, Unreachable when it is down (the legacy
     * tryInstanceForKey contract). Replicated tiers: the serving
     * member per the route decision — leader for writes, preference
     * pick for reads — with typed QuorumLost/StaleRead rejects in
     * @p status when nothing can serve.
     */
    Instance *resolveKeyInstance(const data::RouteHint &route, Tick now,
                                 trace::SpanStatus &status);

    /** Count one aborted multi-partition transaction at this tier. */
    void noteTxnAbort();

    // -- Partitioned deployment (opt-in; see src/data/placement.hh) ----

    /**
     * Home shard of this tier in a partitioned world. Calls from a
     * tier with a different home cross as engine mail instead of
     * the local RPC path. 0 (everything colocated) until
     * `App::enablePartition` assigns the placement.
     */
    void setHomeShard(unsigned shard) { homeShard_ = shard; }
    unsigned homeShard() const { return homeShard_; }

    /**
     * Position of this tier in the app's service insertion order —
     * the tier's identity in cross-shard call marshalling (every
     * shard builds the identical graph, so the index resolves to the
     * same tier everywhere).
     */
    void setOrderIndex(unsigned index) { orderIndex_ = index; }
    unsigned orderIndex() const { return orderIndex_; }

    /**
     * Fault injection (Fig 22a): emulate a switch-routing
     * misconfiguration that funnels all of this tier's traffic to its
     * first instance instead of load balancing.
     */
    void setRouteMisconfigured(bool broken) { misrouted_ = broken; }
    bool routeMisconfigured() const { return misrouted_; }

    /**
     * Mean server-side latency of the requests the tier served Ok
     * since the last App::statReset() (0 if none).
     */
    double meanLatency() const;

    /**
     * Change the per-instance worker-thread count. Must be called
     * while all instances are idle (e.g. right after building the
     * app); used by the serverless platform rewrite.
     */
    void setThreadsPerInstance(unsigned threads);

    /** Mean thread occupancy across active instances. */
    double meanOccupancy() const;

    /** Mean queue length across active instances. */
    double meanQueueLength() const;

    /** Mean in-flight RPCs across active instances (busy + queued). */
    double meanInFlight() const;

    /** Total drops across instances. */
    std::uint64_t totalDropped() const;

    // -- Measured execution-mode accounting (Fig 14) -------------------

    /** Charge cycles+instructions to an execution mode. */
    void chargeKernel(double cycles, double instructions);
    void chargeUser(double cycles, double instructions);
    void chargeLib(double cycles, double instructions);

    double kernelCycles() const { return kernelCycles_; }
    double userCycles() const { return userCycles_; }
    double libCycles() const { return libCycles_; }
    double kernelInstr() const { return kernelInstr_; }
    double userInstr() const { return userInstr_; }
    double libInstr() const { return libInstr_; }

  private:
    friend class App;

    App &app_;
    ServiceDef def_;
    trace::ServiceId traceServiceId_ = trace::kNoService;
    /**
     * Resolved handler stages, parallel to def_.handler.stages; built
     * on first use and rebuilt when the stage vector is replaced.
     */
    std::vector<StagePlan> plans_;
    const Stage *plannedFrom_ = nullptr;
    std::vector<std::unique_ptr<Instance>> instances_;
    std::size_t rrCursor_ = 0;
    bool misrouted_ = false;
    unsigned homeShard_ = 0;
    unsigned orderIndex_ = 0;

    /** Apply owed replica-store maintenance to @p group's model. */
    void applyReplicaMaintenance(unsigned group, Tick now);

    /** Mirror ReplicaSet event counts into replica.<tier>.* metrics. */
    void syncReplicaMetrics();

    /** Consistent-hash placement (keyed mode only). */
    std::unique_ptr<data::ShardMap> shardMap_;
    /** Per-instance keyed stores, parallel to instances_. */
    std::vector<std::unique_ptr<data::CacheModel>> cacheModels_;
    data::CacheModelConfig cacheConfig_;
    /** Tier-level miss counter for lookups against downed shards. */
    Counter *unreachableMisses_ = nullptr;

    /** Replica-group state machine (null while unreplicated). */
    std::unique_ptr<replica::ReplicaSet> replicas_;
    /** Last mirrored snapshot of the replica event counts. */
    replica::ReplicaCounts mirrored_;
    /** replica.<tier>.* counters, created by enableReplication. */
    Counter *replStaleReads_ = nullptr;
    Counter *replStaleRejects_ = nullptr;
    Counter *replQuorumLost_ = nullptr;
    Counter *replRywRedirects_ = nullptr;
    Counter *replElections_ = nullptr;
    Counter *replFailovers_ = nullptr;
    Counter *replTrims_ = nullptr;
    Counter *replStoreLosses_ = nullptr;
    Counter *replTxnAborts_ = nullptr;

    /** Sum of the latencies counted by the instances' served(). */
    double latencySum_ = 0.0;

    double kernelCycles_ = 0.0, userCycles_ = 0.0, libCycles_ = 0.0;
    double kernelInstr_ = 0.0, userInstr_ = 0.0, libInstr_ = 0.0;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_MICROSERVICE_HH
