/**
 * @file
 * The end-to-end application runtime.
 *
 * An App owns a service graph (Microservice tiers), wires it to the
 * compute (cpu::Cluster) and network (net::Network) substrates, and
 * interprets handler programs per request: every RPC hop charges
 * serialization and kernel TCP cycles to the right server, traverses
 * the fabric, queues for worker threads, and records a tracing span.
 * End-to-end requests enter through inject() from a client server.
 *
 * This is the "core" of the reproduction: all end-to-end services in
 * src/apps are built as configurations of this runtime.
 */

#ifndef UQSIM_SERVICE_APP_HH
#define UQSIM_SERVICE_APP_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/inline_function.hh"
#include "core/metrics.hh"
#include "core/quantile_sketch.hh"
#include "core/rng.hh"
#include "core/sim_context.hh"
#include "core/types.hh"
#include "cpu/server.hh"
#include "data/config.hh"
#include "net/network.hh"
#include "replica/replication.hh"
#include "rpc/connection_pool.hh"
#include "rpc/protocol.hh"
#include "rpc/resilience.hh"
#include "service/microservice.hh"
#include "service/request.hh"
#include "trace/analysis.hh"
#include "trace/collector.hh"

namespace uqsim::service {

/** One handler invocation's pooled state (app.cc). */
struct HandlerFrame;
void retainFrame(HandlerFrame *frame) noexcept;
void releaseFrame(HandlerFrame *frame) noexcept;
using HandlerRef = FrameRef<HandlerFrame>;

/** Completion callback for end-to-end requests. */
using CompletionFn = std::function<void(const Request &)>;

/** Outcome of one RPC (alias of the span status vocabulary). */
using RpcStatus = trace::SpanStatus;

/**
 * Completion callback of one RPC as seen by the caller. Held by the
 * call's frame, not by an event, so it can afford room for the
 * client's completion state.
 */
using RpcDone =
    InlineFunction<void(RpcStatus status, Tick wall, Tick caller_net), 64>;

/**
 * Interface the fault-injection engine implements to fail individual
 * request deliveries (transient per-request error rates). The hook is
 * consulted once per arrival at an instance; a true return converts
 * the delivery into an error response on the wire.
 */
class RequestFaultHook
{
  public:
    virtual ~RequestFaultHook() = default;

    /** @return true to fail this arrival at @p svc. */
    virtual bool shouldFailRequest(const Microservice &svc) = 0;
};

/**
 * Interface the observability layer (src/obs) implements to receive
 * per-request signals without the service layer depending on it.
 * Mirrors RequestFaultHook: while no tap is installed — the default —
 * the runtime never consults it, so the hot path carries exactly one
 * null check per site and the execution digest is untouched (the tap
 * itself must never schedule events or mutate model state).
 */
class ObsTap
{
  public:
    virtual ~ObsTap() = default;

    /** A request was served at @p svc in @p latency ns (server side). */
    virtual void onTierLatency(const Microservice &svc, Tick latency) = 0;

    /**
     * An end-to-end request finished after @p latency ns; @p ok is
     * false for failed or dropped requests.
     */
    virtual void onEndToEnd(Tick latency, bool ok) = 0;

    /** Admission control refused an arrival at @p svc (any verdict). */
    virtual void onAdmissionReject(const Microservice &svc) = 0;
};

/**
 * Where the delta of a cross-shard call goes back to: the caller's
 * shard and its CallFrame's slot and generation there.
 */
struct ReplyAddress
{
    unsigned shard = 0;
    std::uint32_t frame = 0;
    std::uint32_t gen = 0;
};

/**
 * One RPC marshalled across shards of a partitioned world: a caller
 * shard invoking a tier homed elsewhere. Plain values only — the two
 * shards share no object graph, so the call carries the request's
 * identity, payload sizes, the key route and the caller's frame by
 * (index, generation), never pointers. Every shard builds the
 * identical service graph, so `tier` (the target's insertion-order
 * index) resolves to the same tier everywhere.
 */
struct RemoteCall
{
    ReplyAddress replyTo;
    unsigned tier = 0;
    std::uint64_t requestId = 0;
    unsigned queryType = 0;
    std::uint64_t userId = 0;
    Tick deadline = 0;
    data::RouteHint route;
    trace::TraceId traceId = 0;
    trace::SpanId parentSpan = 0;
    unsigned attemptNo = 1;
    Bytes reqPayload = 0;
    Bytes respPayload = 0;
    Bytes reqWire = 0;
    Bytes respWire = 0;
};

/**
 * What the home shard hands back for one RemoteCall: the request
 * accounting accumulated during remote handling (merged into the
 * caller's shared Request on arrival), the NIC queueing of the reply
 * leg, and the RPC outcome.
 */
struct RemoteDelta
{
    Tick networkTime = 0;
    Tick tcpProcTime = 0;
    Tick wireTime = 0;
    Tick appTime = 0;
    Tick queueTime = 0;
    Tick replyQueueing = 0;
    std::uint32_t retries = 0;
    std::uint8_t remoteHit = 0;
    bool dropped = false;
    RpcStatus status = RpcStatus::Ok;
};

/**
 * End-to-end application: graph + runtime.
 */
class App
{
  public:
    /** Runtime-wide configuration. */
    struct Config
    {
        /** Application name for reporting. */
        std::string name = "app";

        /** Kernel TCP processing cost model. */
        net::TcpCostModel tcp = net::TcpCostModel::native();

        /** FPGA RPC offload (Fig 16); off by default. */
        net::FpgaOffloadModel fpga = net::FpgaOffloadModel::off();

        /** End-to-end tail-latency QoS target. */
        Tick qosLatency = 100 * kTicksPerMs;

        /** Collect distributed traces. */
        bool tracing = true;

        /**
         * Trace sampling: keep one in n traces (1 = keep all). The
         * decision is trace-coherent — a kept trace keeps every span.
         */
        std::uint64_t traceSampleEvery = 1;

        /** Ring capacity of the span store (spans). */
        std::size_t traceCapacity = trace::TraceStore::kDefaultCapacity;

        /** Client-to-frontend payloads. */
        Bytes clientRequestBytes = 1024;
        Bytes clientResponseBytes = 4096;

        /**
         * End-to-end request deadline assigned at injection (0 = none).
         * Propagated down the call chain: attempts cap their timeout to
         * the remaining budget and tiers refuse arrivals past it.
         */
        Tick requestDeadline = 0;
    };

    App(SimContext ctx, cpu::Cluster &cluster, net::Network &network,
        Config config, std::uint64_t seed);

    /** Frames still referenced by queued events outlive the App. */
    ~App();

    App(const App &) = delete;
    App &operator=(const App &) = delete;

    // -- Graph construction ---------------------------------------------

    /** Add a tier; name must be unique. */
    Microservice &addService(ServiceDef def);

    /** @return true if a tier with this name exists. */
    bool hasService(const std::string &name) const;

    /** Tier by name (fatal if missing). */
    Microservice &service(const std::string &name);
    const Microservice &service(const std::string &name) const;

    /** Tiers in insertion order. */
    const std::vector<Microservice *> &services() const
    {
        return serviceOrder_;
    }

    /** Set the entry tier user requests hit first. */
    void setEntry(const std::string &name);
    const std::string &entry() const { return entry_; }

    /** Register a query type; returns its index. */
    unsigned addQueryType(QueryType qt);
    const std::vector<QueryType> &queryTypes() const { return queryTypes_; }

    /** Place one more instance of @p service on @p server. */
    Instance &addInstance(const std::string &service, cpu::Server &server);

    /** The server end-user requests originate from. */
    void setClientServer(cpu::Server &server);

    /**
     * Check the graph: entry set, every call target exists, every
     * service has at least one instance, no service calls itself.
     * Fatal on violation.
     */
    void validate() const;

    /** Graphviz DOT rendering of the dependency graph (Figs 4-8). */
    std::string exportDot() const;

    // -- Request injection ------------------------------------------------

    /**
     * Inject one end-to-end request of @p query_type for @p user_id.
     * @p done (optional) fires on completion with the full accounting.
     */
    void inject(unsigned query_type, std::uint64_t user_id,
                CompletionFn done = {});

    // -- Configuration knobs ----------------------------------------------

    const Config &config() const { return config_; }

    /** Toggle the FPGA offload for subsequent messages. */
    void setFpga(const net::FpgaOffloadModel &fpga) { config_.fpga = fpga; }

    /** Change the QoS target. */
    void setQosLatency(Tick qos) { config_.qosLatency = qos; }

    /** Set the end-to-end deadline for subsequently injected requests. */
    void setRequestDeadline(Tick d) { config_.requestDeadline = d; }

    // -- Keyed data tier --------------------------------------------------

    /**
     * Turn on the stateful data tier: install the key universe, give
     * every Cache-kind tier per-instance bounded stores, switch every
     * Cache stage to keyed mode, and shard Cache/Database tiers with
     * consistent hashing. Call once, after the graph is built and all
     * instances are placed. Strictly opt-in: without this call no
     * keyed state exists and execution is bit-identical to the legacy
     * fixed-hitProb runtime.
     */
    void enableKeyedData(const data::DataTierConfig &config);

    /** The key universe (null when keyed data is off). */
    const data::Keyspace *keyspace() const { return keyspace_.get(); }

    // -- Replicated keyed-data tier ----------------------------------------

    /**
     * Layer leader/follower replica groups over every keyed Cache
     * tier: quorum-acknowledged writes, read preferences with bounded
     * follower staleness, failover with log catch-up instead of a cold
     * restart, and (txnKeys >= 2) 2PC multi-partition transactions on
     * write-tagged keyed stages. Requires enableKeyedData first; call
     * once. Strictly opt-in: without this call no replica state exists
     * and execution is bit-identical to the unreplicated runtime.
     */
    void enableReplication(const replica::ReplicationConfig &config);

    /** @return true once enableReplication has been called. */
    bool replicationEnabled() const { return replicationEnabled_; }

    // -- Partitioned deployment -------------------------------------------

    /**
     * Split this graph across the engine's shards: @p homes assigns
     * every tier its home shard (see data::assignPlacement) and
     * @p peers is the per-shard App vector — every shard's identical
     * replica of the graph, index == shard. Calls targeting a tier
     * whose home differs from this app's shard then travel through
     * `SimContext::postToShard` as marshalled RemoteCall/RemoteDelta
     * pairs instead of the local RPC path. Call once per shard, after
     * the graph is built; requires a sharded engine whose lookahead is
     * at most the network's wire latency. Strictly opt-in: without
     * this call execution is bit-identical to the colocated runtime.
     */
    void enablePartition(std::vector<App *> peers,
                         const std::map<std::string, unsigned> &homes);

    /** @return true once enablePartition has been called. */
    bool partitioned() const { return partitioned_; }

    /**
     * Serve one marshalled call on this (the target tier's home)
     * shard: rebuild a shard-local Request, perform the keyed store
     * access when the route asks for one, and hand a served frame to
     * the local receive step; its reply leg posts the accounting
     * delta back to the calling shard's frame.
     */
    void serveRemote(const RemoteCall &call);

    // -- Admission control / QoS classes ----------------------------------

    /**
     * Turn on server-side admission control: assign every query type
     * its QoS class and install the class policy into every instance
     * queue (later scale-outs get it too). Call once, after the graph
     * is built, instances are placed and query types are registered.
     * Strictly opt-in: without this call every instance queue stays
     * one FIFO, no admission metric exists, and execution is
     * bit-identical to the runtime before admission control.
     */
    void enableQos(const QosConfig &config);

    /** @return true once enableQos has been called. */
    bool qosEnabled() const { return qosEnabled_; }

    /** The class policy every instance queue holds (once enabled). */
    const AdmissionPolicy &qosPolicy() const { return qosPolicy_; }

    /** QoS class serving a query type (UserFacing while QoS is off). */
    QosClass qosClassOf(unsigned query_type) const;

    // -- Observability taps -----------------------------------------------

    /**
     * Install (or clear, with nullptr) the observability tap. The tap
     * is not owned and must outlive every run of this app (or be
     * cleared first). While null — the default — no per-request signal
     * is ever computed for it.
     */
    void setObsTap(ObsTap *tap) { obsTap_ = tap; }

    /** The installed observability tap (null when none). */
    ObsTap *obsTap() const { return obsTap_; }

    // -- Fault injection --------------------------------------------------

    /**
     * Install (or clear, with nullptr) the per-request fault hook.
     * While null — the default — delivery never consults it, so the
     * execution digest is untouched.
     */
    void setFaultHook(RequestFaultHook *hook) { faultHook_ = hook; }

    /**
     * Track in-flight RPC attempts per target instance so a crash can
     * fail them. Off by default (zero bookkeeping on the common path);
     * the fault injector arms it when its schedule contains a crash.
     */
    void enableCrashTracking() { crashTracking_ = true; }

    /**
     * Crash instance @p idx of @p service_name: it stops accepting
     * work, its queue is drained, and every tracked in-flight attempt
     * against it fails with RpcStatus::Crashed.
     */
    void crashInstance(const std::string &service_name, unsigned idx);

    /** Restore a crashed instance with a fresh thread pool. */
    void restartInstance(const std::string &service_name, unsigned idx);

    // -- Results ----------------------------------------------------------

    /**
     * End-to-end latency over completed (non-dropped) requests: the
     * merge of the per-query-type sketches.
     */
    QuantileSketch endToEndLatency() const;

    /** End-to-end latency for one query type. */
    const QuantileSketch &endToEndLatencyFor(unsigned query_type) const;

    std::uint64_t injected() const { return injected_->value(); }
    std::uint64_t completed() const { return completed_->value(); }
    std::uint64_t completedWithinQos() const
    {
        return completedInQos_->value();
    }
    std::uint64_t droppedRequests() const
    {
        return droppedRequests_->value();
    }
    /** Requests whose entry RPC failed after resilience was exhausted. */
    std::uint64_t failedRequests() const
    {
        return requestsFailed_->value();
    }

    /**
     * Handler contexts (HandlerFrames), requests (RequestFrames) and
     * call frames (CallFrames plus HandlerFrames) of this App still
     * alive. Once run() has drained the engine, which retires the
     * cancelled events too, all are zero; anything left over is held
     * by a reference cycle and leaks.
     */
    std::int64_t liveHandlerContexts() const;
    std::int64_t liveRequests() const;
    std::int64_t framesInUse() const;

    /** Aggregate network-processing work time per completed request. */
    double meanNetworkTimePerRequest() const;
    double meanAppTimePerRequest() const;

    trace::TraceStore &traceStore() { return traceStore_; }
    const trace::TraceStore &traceStore() const { return traceStore_; }
    trace::Collector &collector() { return collector_; }

    /** The app-wide metrics registry every subsystem reports through. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** The scheduling context (shard handle) this app runs in. */
    SimContext &ctx() { return ctx_; }
    const SimContext &ctx() const { return ctx_; }
    cpu::Cluster &cluster() { return cluster_; }
    net::Network &network() { return network_; }
    Rng &rng() { return rng_; }

    /**
     * Reset all measurement state (latency sketches, counters,
     * traces, per-server utilization) - call after warmup.
     */
    void statReset();

  private:
    /** A recycled attempt frame unregisters itself from crash tracking. */
    friend struct CallFrame;

    /** Per-(caller-instance, callee) connection pool key. */
    using PoolKey = std::pair<const void *, const Microservice *>;

    struct PoolKeyHash
    {
        std::size_t
        operator()(const PoolKey &k) const
        {
            return std::hash<const void *>{}(k.first) ^
                   (std::hash<const void *>{}(k.second) << 1);
        }
    };

    /** Effective kernel-code IPC on @p server (cached per server). */
    double kernelIpc(const cpu::Server &server);

    /** The tier's effective IPC on @p inst's server (cached there). */
    double serviceIpc(Instance &inst);

    /** Bit of query tag @p tag, registering it on first sight. */
    std::uint64_t tagBit(const std::string &tag);

    /** @p svc's resolved stages, rebuilt when its handler changed. */
    const StagePlan *stagePlans(Microservice &svc);

    rpc::ConnectionPool &poolFor(const void *caller,
                                 const Microservice &target);

    /** Per-(caller, callee) circuit breaker, created on first use. */
    rpc::CircuitBreaker &breakerFor(const void *caller,
                                    const Microservice &target);

    /** Per-callee retry budget, created on first use. */
    rpc::RetryBudget &budgetFor(const Microservice &target);

    /**
     * Issue one RPC from @p caller_server to @p target, applying the
     * target's resilience policy (deadline check, breaker gate, retry
     * loop around the attempts). With an inactive policy this is a
     * single attempt — the legacy fire-and-wait path.
     * @p done fires back on the caller with the outcome and wall time.
     * @p route (keyed mode) addresses the call to a data key's shard
     * instead of the legacy userId/round-robin selection.
     */
    void rpcCall(unsigned caller_server, Instance *caller_inst,
                 Microservice &target, const RequestRef &req,
                 trace::SpanId parent_span, Bytes req_bytes,
                 Bytes resp_bytes, bool carries_media, RpcDone done,
                 data::RouteHint route = {});

    // -- One attempt, step by step (see DESIGN.md, "Request frames") ---

    /** Start attempt @p f: timeout, then the connection acquire. */
    void startAttempt(CallFrame &f);

    /** Connection granted: charge and run the send-side work. */
    void onGranted(CallFrame &f, std::uint32_t gen);

    /** Send work done: pick the instance and put the request on the wire. */
    void onSent(CallFrame &f, std::uint32_t gen, Tick send_busy);

    /**
     * The instance of @p f's target that serves it: by key route, or
     * by the tier's selection. @return null, with @p status saying
     * why, when none can.
     */
    Instance *pickCallee(CallFrame &f, RpcStatus &status);

    /**
     * Request landed at the callee: receive-side kernel work. Also the
     * first step of a cross-shard call on its home shard.
     */
    void onRequestArrived(CallFrame &f, std::uint32_t gen, Tick queueing_tx,
                          Tick prop);

    /**
     * Reply landed at the caller: receive-side work, then settle. Also
     * the last step of a cross-shard call on the caller's shard.
     */
    void onReplyArrived(CallFrame &f, std::uint32_t gen, RpcStatus status,
                        Tick queueing_tx, Tick prop);

    /**
     * Cross-shard leg of one attempt: charge the forward NIC/wire leg
     * on the caller, marshal the call, and post it to the target
     * tier's home shard; the home shard posts the delta back to
     * onRemoteReply, where it merges into the request and the reply's
     * receive step settles the attempt.
     */
    void remoteAttempt(CallFrame &f, std::uint32_t gen);

    /** Post @p d back to the caller frame @p to names. */
    void postDelta(const ReplyAddress &to, const RemoteDelta &d, Tick delay);

    /** The home shard's delta for caller frame @p index arrived. */
    void onRemoteReply(std::uint32_t index, std::uint32_t gen,
                       const RemoteDelta &d);

    /** Settle attempt @p f exactly once (while its gen is @p gen). */
    void settleAttempt(CallFrame &f, std::uint32_t gen, RpcStatus status);

    /** After settling: retry, or fire the caller's completion. */
    void afterAttempt(CallFrame &f, RpcStatus status, Tick wall,
                      Tick caller_net);

    /** The backoff of settled attempt @p prev expired: try again. */
    void retryAttempt(CallFrame &prev);

    /** Fire the caller's completion of the call @p f belongs to. */
    void finishCall(CallFrame &f, RpcStatus status, Tick wall,
                    Tick caller_net);

    /** Record a caller-side span for a failed attempt. */
    void recordErrorSpan(const Request &req, trace::SpanId parent_span,
                         const Microservice &target, Tick start,
                         unsigned attempt_no, RpcStatus status);

    // -- Crash bookkeeping (active only with crash tracking on) ---------

    void registerAttempt(Instance &inst, CallFrame *f);
    void unregisterAttempt(Instance &inst, CallFrame *f);

    /** Fail every tracked in-flight attempt against @p inst. */
    void failInFlight(Instance &inst);

    // -- Server side -----------------------------------------------------

    /**
     * Arrival of attempt @p call (generation @p gen) at @p inst after
     * receive processing: refuse it, queue it, or start its handler.
     */
    void deliverToInstance(Instance &inst, CallRef call, std::uint32_t gen,
                           Tick pre_network);

    /** Start handling queued work if threads are available. */
    void maybeStartHandling(Instance &inst);

    /** Take a worker thread and run @p a's handler. */
    void startHandler(Instance &inst, Instance::Arrival &a, QosClass cls);

    /** Reply to @p call with @p status without running a handler. */
    void refuse(Instance &inst, CallRef call, std::uint32_t gen,
                RpcStatus status);

    /** Run @p h's stages from its current index until one waits. */
    void runStages(HandlerFrame &h);

    /** Current stage done: move on to the next. */
    void advance(HandlerFrame &h);

    /** Issue sequential call @p i of the current Call stage. */
    void callSequential(HandlerFrame &h, unsigned i);

    /** Continue a Cache stage once the cache RPC (and quorum) is done. */
    void afterCache(HandlerFrame &h, RpcStatus status);

    /** Fold a downstream RPC's outcome into @p h's span. */
    void noteDownstream(HandlerFrame &h, RpcStatus status, Tick wall,
                        Tick caller_net);

    /**
     * Drive one 2PC multi-partition transaction from a write-tagged
     * keyed cache stage: prepare RPCs to every touched group's leader
     * under a coordinator abort timer, then commit (apply all writes,
     * wait out the slowest quorum ack) or mark the handler TxnAborted.
     */
    void runTxnStage(HandlerFrame &h, const Stage &stage,
                     const StagePlan &plan, std::vector<std::uint64_t> keys);

    /** Handler finished: free the thread and reply. */
    void finishHandler(HandlerFrame &h);

    /** Charge and run the reply's send-side work on the callee. */
    void reply(HandlerFrame &h, RpcStatus status);

    /** Reply send work done: record the span, put the reply on the wire. */
    void onReplySent(HandlerFrame &h, Tick reply_busy);

    /** Charge a compute task's cycles to user/lib modes. */
    void chargeCompute(Microservice &svc, double cycles, double ipc);

    /** Charge a network task's cycles to kernel mode. */
    void chargeNetwork(Microservice *svc, double cycles, double ipc);

    SimContext ctx_;
    cpu::Cluster &cluster_;
    net::Network &network_;
    Config config_;
    Rng rng_;
    /**
     * Dedicated stream for resilience decisions (retry jitter).
     * Seeded by derivation, NOT forked from rng_: forking would jump
     * the main stream and change digests of runs that never retry.
     */
    Rng resilienceRng_;

    std::map<std::string, std::unique_ptr<Microservice>> services_;
    std::vector<Microservice *> serviceOrder_;
    std::string entry_;
    std::vector<QueryType> queryTypes_;
    cpu::Server *clientServer_ = nullptr;

    std::unordered_map<PoolKey, std::unique_ptr<rpc::ConnectionPool>,
                       PoolKeyHash>
        pools_;
    std::unordered_map<PoolKey, std::unique_ptr<rpc::CircuitBreaker>,
                       PoolKeyHash>
        breakers_;
    std::unordered_map<const Microservice *, rpc::RetryBudget> budgets_;
    /** Kernel IPC by server id (0 until first used). */
    std::vector<double> kernelIpcById_;
    /** The entry tier (resolved by setEntry). */
    Microservice *entrySvc_ = nullptr;
    /** Query tags by bit index, and each query type's tag mask. */
    std::vector<std::string> tagNames_;
    std::vector<std::uint64_t> queryTags_;
    /** Bit of data::kWriteTag. */
    std::uint64_t writeTag_ = 0;

    /** Frames (each pool self-deleting once orphaned by ~App). */
    FramePool<RequestFrame> *requests_;
    FramePool<CallFrame> *calls_;
    FramePool<HandlerFrame> *handlers_;

    /** Key universe of the stateful data tier (keyed mode only). */
    std::unique_ptr<data::Keyspace> keyspace_;
    data::DataTierConfig dataConfig_;

    RequestFaultHook *faultHook_ = nullptr;
    ObsTap *obsTap_ = nullptr;
    bool crashTracking_ = false;
    /** Partitioned deployment armed (enablePartition called). */
    bool partitioned_ = false;
    /** Per-shard peer apps of a partitioned world (index == shard). */
    std::vector<App *> peerApps_;
    /** Admission control armed (enableQos called). */
    bool qosEnabled_ = false;
    /** The class policy installed into every instance queue. */
    AdmissionPolicy qosPolicy_;
    /** Replica groups armed (enableReplication called). */
    bool replicationEnabled_ = false;
    replica::ReplicationConfig replicationConfig_;
    /** In-flight attempts per target instance (crash tracking only). */
    std::unordered_map<const Instance *, std::vector<CallFrame *>>
        inflight_;

    MetricsRegistry metrics_;
    trace::TraceStore traceStore_;
    trace::Collector collector_;
    trace::IdAllocator ids_;
    trace::ServiceId clientServiceId_ = trace::kNoService;

    std::vector<std::unique_ptr<QuantileSketch>> e2eByQuery_;
    std::uint64_t nextRequestId_ = 0;

    /** Request accounting, owned by the metrics registry. */
    Counter *injected_ = nullptr;
    Counter *completed_ = nullptr;
    Counter *completedInQos_ = nullptr;
    Counter *droppedRequests_ = nullptr;
    Counter *requestsFailed_ = nullptr;
    /** Aggregate blocked-acquire count across all connection pools. */
    Counter *poolBlocked_ = nullptr;
    /** RPC attempt outcomes and resilience actions. */
    Counter *rpcErrors_ = nullptr;
    Counter *rpcTimeouts_ = nullptr;
    Counter *rpcRetries_ = nullptr;
    Counter *rpcRetryBudgetExhausted_ = nullptr;
    Counter *rpcBreakerFastFails_ = nullptr;
    Counter *rpcDeadlineExceeded_ = nullptr;
    Counter *rpcShed_ = nullptr;
    Counter *rpcPoolTimeouts_ = nullptr;
    Counter *rpcCrashedInFlight_ = nullptr;
    Counter *rpcAbandonedArrivals_ = nullptr;
    /**
     * Replication accounting, created lazily by enableReplication so
     * unreplicated runs emit exactly the legacy metric set.
     */
    Counter *rpcQuorumLost_ = nullptr;
    Counter *rpcStaleRejects_ = nullptr;
    Counter *rpcTxnStarted_ = nullptr;
    Counter *rpcTxnCommits_ = nullptr;
    Counter *rpcTxnAborts_ = nullptr;
    /**
     * Admission accounting, created lazily by enableQos so disabled
     * runs emit exactly the legacy metric set. Indexed by QosClass;
     * the verdict counters first by AdmissionVerdict.
     */
    std::array<std::array<Counter *, kQosClassCount>, 4> admVerdicts_{};
    std::array<Counter *, kQosClassCount> admServed_{};
    double totalNetworkTime_ = 0.0;
    double totalAppTime_ = 0.0;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_APP_HH
