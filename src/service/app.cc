#include "service/app.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/logging.hh"

namespace uqsim::service {

/**
 * One RPC attempt (DESIGN.md, "Request frames"). Each attempt runs on
 * its own frame; a retry copies the call's fields into a fresh frame
 * and moves the caller's continuation there. Continuations hold a
 * CallRef plus the generation they were created under: settling bumps
 * the generation, so late replies and deliveries of abandoned requests
 * see a newer value and stop. On the home shard of a cross-shard call
 * a frame with `served` set stands in for the remote caller and keeps
 * only the address its reply goes back to.
 */
struct CallFrame : PooledFrame<CallFrame>
{
    App *app = nullptr;

    // -- The call: the same for every attempt --------------------------
    unsigned callerServer = 0;
    Instance *callerInst = nullptr;
    Microservice *target = nullptr;
    RequestRef req;
    trace::SpanId parentSpan = trace::kNoParent;
    Bytes reqBytes = 0;
    Bytes respBytes = 0;
    bool carriesMedia = false;
    /** The target's policy was active at call time: retry loop on. */
    bool retryLoop = false;
    data::RouteHint route;
    rpc::CircuitBreaker *breaker = nullptr;
    /** The caller's continuation (moves on to a retry's frame). */
    RpcDone done;

    // -- This attempt ---------------------------------------------------
    unsigned attemptNo = 1;
    Bytes reqPayload = 0;
    Bytes respPayload = 0;
    Bytes reqWire = 0;
    Bytes respWire = 0;
    /** The (caller, callee) connection pool. */
    rpc::ConnectionPool *conn = nullptr;
    rpc::ConnectionPool::Ticket ticket =
        rpc::ConnectionPool::kGrantedImmediately;
    bool poolAcquired = false;
    bool poolReleased = false;
    /** Crash-aware selection and zombie guards engaged. */
    bool resilient = false;
    /** The instance serving this attempt (once selected). */
    Instance *callee = nullptr;
    EventHandle timeoutEv;
    EventHandle acquireEv;
    /** Target instance while registered for crash tracking. */
    Instance *registeredAt = nullptr;
    Tick tStart = 0;
    Tick callerNet = 0;
    Tick fpgaLat = 0;
    /** Kernel share of the caller-side step in progress. */
    double tcpFrac = 0.0;
    /**
     * A cross-shard leg is in flight: it stands for one reference,
     * which onRemoteReply (or ~App) takes back.
     */
    bool remoteHeld = false;
    /**
     * Outcome of a keyed store access done on another shard (1 = miss,
     * 2 = hit, 0 = none): on a served frame what goes back in the
     * delta, on the caller's frame what onReplyArrived publishes.
     */
    std::uint8_t remoteHit = 0;

    // -- Serving a cross-shard call on its home shard -------------------
    bool served = false;
    ReplyAddress replyTo;

    CallFrame() = default;
    CallFrame(const CallFrame &) = delete;
    CallFrame &operator=(const CallFrame &) = delete;

    ~CallFrame()
    {
        // An attempt can die without settling (e.g. its message was
        // dropped by a partition and no timeout was set); keep the
        // crash registry free of dangling pointers regardless.
        if (registeredAt && !pool->orphaned())
            app->unregisterAttempt(*registeredAt, this);
    }
};

/**
 * One handler invocation at an instance, or one refusal reply. The
 * frame is the stage interpreter's state machine: the stage index, the
 * join counter and sums of a parallel call, and a cache stage's
 * outcome. Continuations hold a HandlerRef plus at most one scalar.
 */
struct HandlerFrame : PooledFrame<HandlerFrame>
{
    App *app = nullptr;
    Instance *inst = nullptr;
    /** The attempt being served, and its generation at arrival. */
    CallRef call;
    std::uint32_t callGen = 0;
    /** The reply leg's shape, fixed when the attempt arrived. */
    Bytes respPayload = 0;
    Bytes respWire = 0;
    Tick fpgaLat = 0;
    /** False for refusals: no handler ran, no server span is kept. */
    bool handled = false;
    trace::Span span;
    std::uint64_t epoch = 0;
    /** Stage being executed. */
    std::size_t stage = 0;
    /** Parallel call: branches outstanding, their network sum, start. */
    unsigned pending = 0;
    Tick netSum = 0;
    Tick callStart = 0;
    /** Cache stage: the lookup's outcome and route. */
    bool cacheHit = false;
    bool remoteKeyed = false;
    Tick quorumDelay = 0;
    data::RouteHint route;
    /** Set by reply(); an attempt is answered at most once. */
    bool replied = false;
    RpcStatus replyStatus = RpcStatus::Ok;
    double replyTcpFrac = 0.0;

    HandlerFrame() = default;
    HandlerFrame(const HandlerFrame &) = delete;
    HandlerFrame &operator=(const HandlerFrame &) = delete;

    Request &req() const { return *call->req; }

    /**
     * The instance crashed since the handler started: the process is
     * gone, so the handler never replies (the crash path already
     * settled the caller).
     */
    bool cancelled() const { return inst->crashEpoch() != epoch; }
};

void
retainFrame(CallFrame *frame) noexcept
{
    ++frame->refs;
}

void
releaseFrame(CallFrame *frame) noexcept
{
    if (--frame->refs == 0)
        frame->pool->recycle(frame);
}

void
retainFrame(HandlerFrame *frame) noexcept
{
    ++frame->refs;
}

void
releaseFrame(HandlerFrame *frame) noexcept
{
    if (--frame->refs == 0)
        frame->pool->recycle(frame);
}

App::App(SimContext ctx, cpu::Cluster &cluster, net::Network &network,
         Config config, std::uint64_t seed)
    : ctx_(ctx), cluster_(cluster), network_(network),
      config_(std::move(config)), rng_(seed),
      resilienceRng_(seed ^ 0x524553494c49454eull),
      requests_(new FramePool<RequestFrame>),
      calls_(new FramePool<CallFrame>),
      handlers_(new FramePool<HandlerFrame>),
      traceStore_(config_.traceCapacity), collector_(traceStore_)
{
    collector_.setEnabled(config_.tracing);
    collector_.setSampleEvery(config_.traceSampleEvery);
    collector_.bindMetrics(metrics_);
    clientServiceId_ = traceStore_.intern("client");
    writeTag_ = tagBit(data::kWriteTag);

    injected_ = &metrics_.counter("app.requests_injected");
    completed_ = &metrics_.counter("app.requests_completed");
    completedInQos_ = &metrics_.counter("app.requests_completed_in_qos");
    droppedRequests_ = &metrics_.counter("app.requests_dropped");
    requestsFailed_ = &metrics_.counter("app.requests_failed");
    poolBlocked_ = &metrics_.counter("rpc.pool.blocked_acquires");
    rpcErrors_ = &metrics_.counter("rpc.errors");
    rpcTimeouts_ = &metrics_.counter("rpc.timeouts");
    rpcRetries_ = &metrics_.counter("rpc.retries");
    rpcRetryBudgetExhausted_ =
        &metrics_.counter("rpc.retry_budget_exhausted");
    rpcBreakerFastFails_ = &metrics_.counter("rpc.breaker_fast_fails");
    rpcDeadlineExceeded_ = &metrics_.counter("rpc.deadline_exceeded");
    rpcShed_ = &metrics_.counter("rpc.shed");
    rpcPoolTimeouts_ = &metrics_.counter("rpc.pool.acquire_timeouts");
    rpcCrashedInFlight_ = &metrics_.counter("rpc.crashed_in_flight");
    rpcAbandonedArrivals_ = &metrics_.counter("rpc.abandoned_arrivals");
}

App::~App()
{
    // A cross-shard leg carries plain values, not a FrameRef: drop the
    // reference each one in flight stands for, or its frame (and the
    // handler waiting on it) would never be recycled.
    for (std::size_t i = 0; i < calls_->capacity(); ++i) {
        CallFrame &f = calls_->at(static_cast<std::uint32_t>(i));
        if (f.remoteHeld) {
            f.remoteHeld = false;
            releaseFrame(&f);
        }
    }
    calls_->orphan();
    handlers_->orphan();
    requests_->orphan();
}

std::int64_t
App::liveHandlerContexts() const
{
    return static_cast<std::int64_t>(handlers_->inUse());
}

std::int64_t
App::liveRequests() const
{
    return static_cast<std::int64_t>(requests_->inUse());
}

std::int64_t
App::framesInUse() const
{
    return static_cast<std::int64_t>(calls_->inUse() + handlers_->inUse());
}

Microservice &
App::addService(ServiceDef def)
{
    if (services_.count(def.name))
        fatal(strCat("duplicate service '", def.name, "'"));
    auto svc = std::make_unique<Microservice>(*this, std::move(def));
    Microservice &ref = *svc;
    serviceOrder_.push_back(&ref);
    services_[ref.name()] = std::move(svc);
    return ref;
}

bool
App::hasService(const std::string &name) const
{
    return services_.count(name) > 0;
}

Microservice &
App::service(const std::string &name)
{
    auto it = services_.find(name);
    if (it == services_.end())
        fatal(strCat("unknown service '", name, "'"));
    return *it->second;
}

const Microservice &
App::service(const std::string &name) const
{
    auto it = services_.find(name);
    if (it == services_.end())
        fatal(strCat("unknown service '", name, "'"));
    return *it->second;
}

void
App::setEntry(const std::string &name)
{
    if (!hasService(name))
        fatal(strCat("entry service '", name, "' does not exist"));
    entry_ = name;
    entrySvc_ = &service(name);
}

unsigned
App::addQueryType(QueryType qt)
{
    std::uint64_t mask = 0;
    for (const std::string &tag : qt.tags)
        mask |= tagBit(tag);
    queryTags_.push_back(mask);
    queryTypes_.push_back(std::move(qt));
    e2eByQuery_.push_back(std::make_unique<QuantileSketch>());
    return static_cast<unsigned>(queryTypes_.size() - 1);
}

Instance &
App::addInstance(const std::string &name, cpu::Server &server)
{
    return service(name).addInstance(server);
}

void
App::setClientServer(cpu::Server &server)
{
    clientServer_ = &server;
}

void
App::validate() const
{
    if (entry_.empty())
        fatal(strCat("app '", config_.name, "': no entry service set"));
    for (const Microservice *svc : serviceOrder_) {
        for (const std::string &target : svc->def().handler.callTargets()) {
            if (!hasService(target))
                fatal(strCat("service '", svc->name(), "' calls unknown '",
                             target, "'"));
            if (target == svc->name())
                fatal(strCat("service '", svc->name(), "' calls itself"));
        }
        if (svc->instances().empty())
            fatal(strCat("service '", svc->name(), "' has no instances"));
    }
    if (!clientServer_)
        fatal(strCat("app '", config_.name, "': no client server set"));
}

std::string
App::exportDot() const
{
    std::ostringstream os;
    os << "digraph \"" << config_.name << "\" {\n";
    os << "  rankdir=LR;\n";
    for (const Microservice *svc : serviceOrder_) {
        const char *shape = "box";
        switch (svc->def().kind) {
          case ServiceKind::Frontend:
            shape = "house";
            break;
          case ServiceKind::Cache:
            shape = "oval";
            break;
          case ServiceKind::Database:
            shape = "cylinder";
            break;
          default:
            break;
        }
        os << "  \"" << svc->name() << "\" [shape=" << shape << "];\n";
    }
    for (const Microservice *svc : serviceOrder_)
        for (const std::string &t : svc->def().handler.callTargets())
            os << "  \"" << svc->name() << "\" -> \"" << t << "\";\n";
    if (!entry_.empty()) {
        os << "  \"client\" [shape=plaintext];\n";
        os << "  \"client\" -> \"" << entry_ << "\";\n";
    }
    os << "}\n";
    return os.str();
}

double
App::kernelIpc(const cpu::Server &server)
{
    if (server.id() >= kernelIpcById_.size())
        kernelIpcById_.resize(server.id() + 1, 0.0);
    double &ipc = kernelIpcById_[server.id()];
    if (ipc == 0.0) {
        // Static profile of the kernel TCP/IP path: moderate footprint,
        // fully kernel-mode, memory-touching code.
        cpu::ServiceProfile kp;
        kp.name = "kernel-tcp";
        kp.codeFootprintKb = 600.0;
        kp.branchEntropy = 0.20;
        kp.memIntensity = 0.40;
        kp.kernelShare = 1.0;
        kp.libShare = 0.0;
        ipc = cpu::MicroarchModel::effectiveIpc(kp, server.model());
    }
    return ipc;
}

double
App::serviceIpc(Instance &inst)
{
    if (inst.serviceIpc_ == 0.0)
        inst.serviceIpc_ = cpu::MicroarchModel::effectiveIpc(
            inst.svc().def().profile, inst.server().model());
    return inst.serviceIpc_;
}

std::uint64_t
App::tagBit(const std::string &tag)
{
    for (std::size_t i = 0; i < tagNames_.size(); ++i)
        if (tagNames_[i] == tag)
            return std::uint64_t(1) << i;
    if (tagNames_.size() == 64)
        fatal(strCat("app '", config_.name, "': more than 64 distinct "
                     "query tags (at '", tag, "')"));
    tagNames_.push_back(tag);
    return std::uint64_t(1) << (tagNames_.size() - 1);
}

const StagePlan *
App::stagePlans(Microservice &svc)
{
    const std::vector<Stage> &stages = svc.def_.handler.stages;
    if (svc.plannedFrom_ == stages.data() &&
        svc.plans_.size() == stages.size())
        return svc.plans_.data();
    // First use, or the handler was replaced through mutableDef().
    svc.plans_.assign(stages.size(), StagePlan{});
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const Stage &st = stages[i];
        StagePlan &p = svc.plans_[i];
        if (st.kind == Stage::Kind::Call || st.kind == Stage::Kind::Cache)
            p.target = &service(st.target);
        if (st.kind == Stage::Kind::Cache && !st.dbTarget.empty())
            p.db = &service(st.dbTarget);
        if (!st.onlyForTag.empty())
            p.tagBit = tagBit(st.onlyForTag);
    }
    svc.plannedFrom_ = stages.data();
    return svc.plans_.data();
}

rpc::ConnectionPool &
App::poolFor(const void *caller, const Microservice &target)
{
    const PoolKey key{caller, &target};
    auto it = pools_.find(key);
    if (it == pools_.end()) {
        const auto &proto = target.def().protocol;
        it = pools_
                 .emplace(key, std::make_unique<rpc::ConnectionPool>(
                                   proto.connectionsPerPair,
                                   proto.connectionBlocking,
                                   poolBlocked_))
                 .first;
    }
    return *it->second;
}

rpc::CircuitBreaker &
App::breakerFor(const void *caller, const Microservice &target)
{
    const PoolKey key{caller, &target};
    auto it = breakers_.find(key);
    if (it == breakers_.end())
        it = breakers_
                 .emplace(key, std::make_unique<rpc::CircuitBreaker>(
                                   target.def().resilience.breaker))
                 .first;
    return *it->second;
}

rpc::RetryBudget &
App::budgetFor(const Microservice &target)
{
    auto it = budgets_.find(&target);
    if (it == budgets_.end()) {
        const rpc::RetryPolicy &r = target.def().resilience.retry;
        it = budgets_
                 .emplace(&target,
                          rpc::RetryBudget(r.budgetRatio, r.budgetCap))
                 .first;
    }
    return it->second;
}

void
App::registerAttempt(Instance &inst, CallFrame *f)
{
    inflight_[&inst].push_back(f);
}

void
App::unregisterAttempt(Instance &inst, CallFrame *f)
{
    auto it = inflight_.find(&inst);
    if (it == inflight_.end())
        return;
    auto &v = it->second;
    v.erase(std::remove(v.begin(), v.end(), f), v.end());
    if (v.empty())
        inflight_.erase(it);
}

void
App::failInFlight(Instance &inst)
{
    auto it = inflight_.find(&inst);
    if (it == inflight_.end())
        return;
    // Settling unregisters, so detach the list first; hold every
    // victim, since settling one may release another's last holder.
    std::vector<std::pair<CallRef, std::uint32_t>> victims;
    for (CallFrame *f : it->second)
        victims.emplace_back(CallRef(f), f->gen);
    inflight_.erase(it);
    for (const auto &[f, gen] : victims) {
        if (f->gen != gen)
            continue;
        f->registeredAt = nullptr; // already detached from the registry
        rpcCrashedInFlight_->inc();
        settleAttempt(*f, gen, RpcStatus::Crashed);
    }
}

void
App::crashInstance(const std::string &service_name, unsigned idx)
{
    Microservice &svc = service(service_name);
    if (idx >= svc.instances().size())
        fatal(strCat("crashInstance: service '", service_name,
                     "' has no instance ", idx));
    Instance &inst = *svc.instances()[idx];
    if (!inst.active_ && inst.freeThreads_ == 0)
        return; // already down
    inst.active_ = false;
    ++inst.crashEpoch_;
    // Fail the callers first (their settle flags silence the queued
    // closures), then drop the queue: the process and its state die.
    failInFlight(inst);
    inst.queue_.clear();
    inst.freeThreads_ = 0;
    if (svc.replicated()) {
        // Replicated tier: the process dies but the group's logical
        // store lives on at the surviving members. Leadership moves by
        // election; a failover replays the log into the warm store
        // (trim of the un-applied tail) instead of clearing it. Only a
        // whole-group death loses the data — the replica layer flags
        // that and the next access clears the store.
        svc.replicaSet()->onInstanceDown(idx, ctx_.now());
    } else if (data::CacheModel *model = svc.cacheModel(idx)) {
        // Keyed state dies with the process: whatever replaces this
        // shard (a restart or a standby) starts with a cold store and
        // must re-learn the hot set — the Fig 20 recovery transient.
        model->clearCold();
    }
}

void
App::restartInstance(const std::string &service_name, unsigned idx)
{
    Microservice &svc = service(service_name);
    if (idx >= svc.instances().size())
        fatal(strCat("restartInstance: service '", service_name,
                     "' has no instance ", idx));
    Instance &inst = *svc.instances()[idx];
    if (inst.active_)
        return;
    inst.freeThreads_ = svc.def().threadsPerInstance;
    inst.queue_.reset(ctx_.now());
    inst.active_ = true;
    if (svc.replicated())
        // The restarted member replays the replication log before it
        // may vote, serve, or ack again (the catch-up window).
        svc.replicaSet()->onInstanceUp(idx, ctx_.now());
}

void
App::enableKeyedData(const data::DataTierConfig &config)
{
    if (!config.enabled())
        fatal("enableKeyedData: keyspace.keys must be > 0");
    if (keyspace_)
        fatal("enableKeyedData called twice");
    dataConfig_ = config;
    keyspace_ = std::make_unique<data::Keyspace>(config.keyspace);
    for (Microservice *svc : serviceOrder_) {
        const ServiceKind kind = svc->def().kind;
        if (kind == ServiceKind::Cache || kind == ServiceKind::Database)
            svc->enableKeyedRouting(config.vnodes);
        if (kind == ServiceKind::Cache)
            svc->attachCacheModels(config.cache);
    }
    // Flip every cache stage whose target is a ring-managed cache
    // tier into keyed mode.
    for (Microservice *svc : serviceOrder_) {
        for (Stage &st : svc->mutableDef().handler.stages) {
            if (st.kind != Stage::Kind::Cache)
                continue;
            if (service(st.target).def().kind == ServiceKind::Cache)
                st.keyed = true;
        }
    }
}

void
App::enablePartition(std::vector<App *> peers,
                     const std::map<std::string, unsigned> &homes)
{
    if (partitioned_)
        fatal("enablePartition called twice");
    if (replicationEnabled_)
        fatal("enablePartition: replicated tiers cannot be partitioned");
    if (config_.fpga.enabled)
        fatal("enablePartition: FPGA offload is unsupported in "
              "partition mode");
    if (peers.size() != ctx_.shardCount())
        fatal(strCat("enablePartition: ", peers.size(), " peer apps for ",
                     ctx_.shardCount(), " shards"));
    // The engine only guarantees cross-shard causality for deliveries
    // at least one lookahead ahead; every cross-shard message here
    // travels >= one wire latency, so that is the ceiling.
    if (ctx_.shardCount() > 1 &&
        ctx_.lookahead() > network_.config().wireLatency)
        fatal("enablePartition: engine lookahead exceeds the "
              "inter-shard wire latency");
    for (unsigned i = 0; i < serviceOrder_.size(); ++i) {
        Microservice *svc = serviceOrder_[i];
        auto it = homes.find(svc->name());
        if (it == homes.end())
            fatal(strCat("enablePartition: no home shard for tier '",
                         svc->name(), "'"));
        if (it->second >= ctx_.shardCount())
            fatal(strCat("enablePartition: tier '", svc->name(),
                         "' pinned to shard ", it->second, " of ",
                         ctx_.shardCount()));
        svc->setOrderIndex(i);
        svc->setHomeShard(it->second);
    }
    peerApps_ = std::move(peers);
    partitioned_ = true;
}

void
App::enableReplication(const replica::ReplicationConfig &config)
{
    if (!config.enabled())
        fatal("enableReplication: factor must be >= 2");
    if (replicationEnabled_)
        fatal("enableReplication called twice");
    if (!keyspace_)
        fatal("enableReplication requires enableKeyedData first");
    if (config.writeQuorum > config.factor)
        fatal("enableReplication: writeQuorum must be <= factor");
    if (config.txnKeys == 1)
        fatal("enableReplication: txnKeys must be 0 or >= 2");
    replicationConfig_ = config;

    bool any = false;
    for (Microservice *svc : serviceOrder_) {
        if (svc->def().kind == ServiceKind::Cache &&
            svc->keyedRouting() && svc->hasCacheModels()) {
            svc->enableReplication(config);
            any = true;
        }
    }
    if (!any)
        fatal("enableReplication: no keyed cache tier to replicate");

    // Counters are created here, not in the App constructor, so a run
    // without replication emits exactly the legacy metric set.
    rpcQuorumLost_ = &metrics_.counter("rpc.quorum_lost");
    rpcStaleRejects_ = &metrics_.counter("rpc.stale_rejects");
    if (config.txnEnabled()) {
        rpcTxnStarted_ = &metrics_.counter("rpc.txn_started");
        rpcTxnCommits_ = &metrics_.counter("rpc.txn_commits");
        rpcTxnAborts_ = &metrics_.counter("rpc.txn_aborts");
    }
    replicationEnabled_ = true;
}

void
App::enableQos(const QosConfig &config)
{
    if (qosEnabled_)
        fatal("enableQos called twice");
    // A backlogged zero-weight class would never earn dequeue credit
    // (the WRR grant loop would starve it forever), so reject it here
    // as well as at the config surfaces.
    for (unsigned w : config.policy.weights)
        if (w == 0)
            fatal("enableQos: every class weight must be >= 1");
    for (double f : config.policy.shedAt)
        if (f <= 0.0 || f > 1.0)
            fatal("enableQos: shed thresholds must be in (0, 1]");
    if (config.policy.ratePerInstance < 0.0)
        fatal("enableQos: ratePerInstance must be >= 0");
    if (config.policy.burst <= 0.0)
        fatal("enableQos: burst must be > 0");

    auto classify = [this](const std::vector<std::string> &names,
                           QosClass cls) {
        for (const std::string &name : names) {
            bool found = false;
            for (QueryType &qt : queryTypes_) {
                if (qt.name == name) {
                    qt.qosClass = cls;
                    found = true;
                }
            }
            if (!found)
                fatal(strCat("enableQos: unknown query type '", name,
                             "'"));
        }
    };
    classify(config.batchQueries, QosClass::Batch);
    classify(config.bestEffortQueries, QosClass::BestEffort);

    // Counters are created here, not in the App constructor, so a run
    // without QoS emits exactly the legacy metric set.
    static constexpr const char *kVerdictNames[] = {"admitted", "throttled",
                                                    "shed", "overflow"};
    for (unsigned c = 0; c < kQosClassCount; ++c) {
        const char *cls = qosClassName(static_cast<QosClass>(c));
        for (std::size_t v = 0; v < admVerdicts_.size(); ++v)
            admVerdicts_[v][c] = &metrics_.counter(
                strCat("admission.", kVerdictNames[v], ".", cls));
        admServed_[c] =
            &metrics_.counter(strCat("admission.served.", cls));
    }

    qosPolicy_ = config.policy;
    for (Microservice *svc : serviceOrder_)
        for (const auto &inst : svc->instances())
            inst->queue_.install(qosPolicy_, ctx_.now());
    qosEnabled_ = true;
}

QosClass
App::qosClassOf(unsigned query_type) const
{
    return qosEnabled_ && query_type < queryTypes_.size()
               ? queryTypes_[query_type].qosClass
               : QosClass::UserFacing;
}

void
App::recordErrorSpan(const Request &req, trace::SpanId parent_span,
                     const Microservice &target, Tick start,
                     unsigned attempt_no, RpcStatus status)
{
    if (!config_.tracing)
        return;
    trace::Span sp;
    sp.traceId = req.traceId;
    sp.spanId = ids_.nextSpan();
    sp.parentSpanId = parent_span;
    sp.service = target.traceServiceId();
    sp.instance = 0;
    sp.queryType = req.queryType;
    sp.start = start;
    sp.end = ctx_.now();
    sp.status = static_cast<std::uint8_t>(status);
    sp.attempt = static_cast<std::uint8_t>(std::min(attempt_no, 255u));
    if (qosEnabled_)
        sp.qosClass =
            static_cast<std::uint8_t>(qosClassOf(req.queryType));
    collector_.collect(sp);
}

void
App::chargeCompute(Microservice &svc, double cycles, double ipc)
{
    const auto &p = svc.def().profile;
    const double non_kernel = std::max(1e-9, 1.0 - p.kernelShare);
    const double lib_frac = std::clamp(p.libShare / non_kernel, 0.0, 1.0);
    const double instr = cycles * ipc;
    svc.chargeLib(cycles * lib_frac, instr * lib_frac);
    svc.chargeUser(cycles * (1.0 - lib_frac), instr * (1.0 - lib_frac));
}

void
App::chargeNetwork(Microservice *svc, double cycles, double ipc)
{
    if (svc)
        svc->chargeKernel(cycles, cycles * ipc);
}

namespace {

/** Kernel share of a step's cycles (its tcp part over the total). */
double
tcpShare(Cycles tcp, Cycles total)
{
    return static_cast<double>(tcp) /
           static_cast<double>(std::max<Cycles>(1, total));
}

} // namespace

// -- Caller side: one RPC, attempt by attempt ---------------------------

void
App::rpcCall(unsigned caller_server, Instance *caller_inst,
             Microservice &target, const RequestRef &req,
             trace::SpanId parent_span, Bytes req_bytes, Bytes resp_bytes,
             bool carries_media, RpcDone done, data::RouteHint route)
{
    const rpc::ResiliencePolicy &pol = target.def().resilience;
    rpc::CircuitBreaker *br = nullptr;
    // An inactive policy is the legacy fire-and-wait path: no gates, no
    // retries, no extra events — byte-identical execution to the
    // pre-resilience runtime (the digest tests depend on this).
    if (pol.active()) {
        const void *caller_key =
            caller_inst ? static_cast<const void *>(caller_inst)
                        : static_cast<const void *>(this);
        br = pol.breaker.enabled ? &breakerFor(caller_key, target)
                                 : nullptr;
        const Tick call_start = ctx_.now();
        if (req->deadline && call_start >= req->deadline) {
            rpcDeadlineExceeded_->inc();
            rpcErrors_->inc();
            recordErrorSpan(*req, parent_span, target, call_start, 1,
                            RpcStatus::DeadlineExceeded);
            done(RpcStatus::DeadlineExceeded, 0, 0);
            return;
        }
        if (br && !br->allow(call_start)) {
            rpcBreakerFastFails_->inc();
            rpcErrors_->inc();
            recordErrorSpan(*req, parent_span, target, call_start, 1,
                            RpcStatus::BreakerOpen);
            done(RpcStatus::BreakerOpen, 0, 0);
            return;
        }
        // The budget earns on first attempts only, so retry traffic is
        // capped at budgetRatio of the offered load.
        if (pol.retry.enabled() && pol.retry.budgetRatio > 0.0)
            budgetFor(target).onAttempt();
    }

    CallRef f(calls_->acquire());
    f->app = this;
    f->callerServer = caller_server;
    f->callerInst = caller_inst;
    f->target = &target;
    f->req = req;
    f->parentSpan = parent_span;
    f->reqBytes = req_bytes;
    f->respBytes = resp_bytes;
    f->carriesMedia = carries_media;
    f->retryLoop = pol.active();
    f->route = route;
    f->breaker = br;
    f->done = std::move(done);
    startAttempt(*f);
}

void
App::startAttempt(CallFrame &f)
{
    const ServiceDef &def = f.target->def();
    const QueryType &qt = queryTypes_[f.req->queryType];
    f.reqPayload = (f.reqBytes ? f.reqBytes : def.defaultRequestBytes) +
                   (f.carriesMedia ? qt.extraPayloadBytes : 0);
    f.respPayload = f.respBytes ? f.respBytes : def.defaultResponseBytes;
    f.reqWire = def.protocol.wireSize(f.reqPayload);
    f.respWire = def.protocol.wireSize(f.respPayload);
    const void *caller_key =
        f.callerInst ? static_cast<const void *>(f.callerInst)
                     : static_cast<const void *>(this);
    f.conn = &poolFor(caller_key, *f.target);
    const rpc::ResiliencePolicy &pol = def.resilience;
    // Crash-aware selection + zombie guards engage with any policy or
    // armed fault schedule; the plain path stays exactly legacy.
    f.resilient = pol.active() || crashTracking_;
    f.tStart = ctx_.now();
    const std::uint32_t gen = f.gen;

    // Per-attempt timeout, capped to the remaining deadline budget so
    // a deep call chain never waits past its caller's patience. When
    // the deadline is the binding constraint, expiry is reported as
    // DeadlineExceeded, not a generic timeout.
    Tick eff_timeout = pol.timeout;
    bool deadline_bound = false;
    if (f.req->deadline) {
        const Tick remaining =
            f.req->deadline > f.tStart ? f.req->deadline - f.tStart : 1;
        if (eff_timeout == 0 || remaining < eff_timeout) {
            eff_timeout = remaining;
            deadline_bound = true;
        }
    }
    if (eff_timeout > 0) {
        f.timeoutEv = ctx_.schedule(eff_timeout, [r = CallRef(&f), gen,
                                                  deadline_bound]() {
            App &app = *r->app;
            if (r->gen != gen)
                return;
            if (deadline_bound) {
                app.rpcDeadlineExceeded_->inc();
                app.settleAttempt(*r, gen, RpcStatus::DeadlineExceeded);
            } else {
                app.rpcTimeouts_->inc();
                app.settleAttempt(*r, gen, RpcStatus::Timeout);
            }
        });
    }

    f.ticket = f.conn->acquire(
        [r = CallRef(&f), gen]() { r->app->onGranted(*r, gen); });

    if (f.ticket != rpc::ConnectionPool::kGrantedImmediately &&
        pol.acquireTimeout > 0 && f.gen == gen) {
        // Parked behind a saturated HTTP/1.1 pool: give up after the
        // configured wait instead of parking forever (Fig 17B's hang).
        f.acquireEv = ctx_.schedule(pol.acquireTimeout,
                                    [r = CallRef(&f), gen]() {
            if (r->poolAcquired || r->gen != gen)
                return;
            r->app->rpcPoolTimeouts_->inc();
            r->app->settleAttempt(*r, gen, RpcStatus::PoolTimeout);
        });
    }
}

void
App::onGranted(CallFrame &f, std::uint32_t gen)
{
    f.poolAcquired = true;
    f.acquireEv.cancel();
    cpu::Server &csrv = cluster_.server(f.callerServer);
    const Cycles send_tcp = config_.fpga.enabled
                                ? config_.fpga.hostSendCycles
                                : config_.tcp.sendCost(f.reqWire);
    const Cycles send_cycles =
        f.target->def().protocol.serializeCost(f.reqPayload) + send_tcp;
    f.tcpFrac = tcpShare(send_tcp, send_cycles);
    const double kipc = kernelIpc(csrv);
    chargeNetwork(f.callerInst ? &f.callerInst->svc() : nullptr,
                  static_cast<double>(send_cycles), kipc);
    csrv.execute(send_cycles, kipc, [r = CallRef(&f), gen](Tick busy) {
        r->app->onSent(*r, gen, busy);
    });
}

void
App::onSent(CallFrame &f, std::uint32_t gen, Tick send_busy)
{
    if (f.gen != gen)
        return;
    Request &req = *f.req;
    req.networkTime += send_busy;
    req.tcpProcTime +=
        static_cast<Tick>(f.tcpFrac * static_cast<double>(send_busy));
    f.callerNet += send_busy;

    // Partitioned deployment: a target homed on another shard is a
    // different machine reachable only through engine mail —
    // hand the attempt to the cross-shard leg. Every path below this
    // point (instance selection, delivery, reply) then runs on the
    // target's home shard.
    if (partitioned_ && f.target->homeShard() != ctx_.shard()) {
        remoteAttempt(f, gen);
        return;
    }

    RpcStatus status = RpcStatus::Ok;
    Instance *ti = pickCallee(f, status);
    if (!ti) {
        settleAttempt(f, gen, status);
        return;
    }
    if (crashTracking_) {
        f.registeredAt = ti;
        registerAttempt(*ti, &f);
    }
    f.callee = ti;
    f.fpgaLat = config_.fpga.enabled ? config_.fpga.pipelineLatency : 0;
    network_.send(f.callerServer, ti->server().id(), f.reqWire,
                  [r = CallRef(&f), gen](Tick queueing_tx, Tick prop) {
        r->app->onRequestArrived(*r, gen, queueing_tx, prop);
    });
}

Instance *
App::pickCallee(CallFrame &f, RpcStatus &status)
{
    Microservice &tgt = *f.target;
    if (f.route.byKey) {
        // Keyed mode: the call is addressed to the key's serving
        // instance — the ring owner, or with replication the group
        // leader / read-preference pick. Unservable keys fail fast
        // with a typed status (Unreachable, QuorumLost, StaleRead)
        // regardless of policy; the client retry loop treats all three
        // as retryable.
        Instance *ti = tgt.resolveKeyInstance(f.route, ctx_.now(), status);
        if (status == RpcStatus::QuorumLost && rpcQuorumLost_)
            rpcQuorumLost_->inc();
        else if (status == RpcStatus::StaleRead && rpcStaleRejects_)
            rpcStaleRejects_->inc();
        return ti;
    }
    if (f.resilient) {
        // Outage: nothing active to route to. Fail fast on the caller
        // instead of aborting the simulation.
        status = RpcStatus::Unreachable;
        return tgt.trySelectInstance(*f.req);
    }
    return &tgt.selectInstance(*f.req);
}

void
App::onRequestArrived(CallFrame &f, std::uint32_t gen, Tick queueing_tx,
                      Tick prop)
{
    auto deliver = [r = CallRef(&f), gen, queueing_tx, prop]() {
        CallFrame &f = *r;
        App &app = *f.app;
        if (f.gen != gen)
            return; // caller gave up while we were in flight
        Request &req = *f.req;
        req.networkTime += queueing_tx + f.fpgaLat;
        req.tcpProcTime += f.fpgaLat;
        req.wireTime += prop;
        f.callerNet += queueing_tx + f.fpgaLat;
        Instance &ti = *f.callee;
        const Cycles rr_tcp = app.config_.fpga.enabled
                                  ? app.config_.fpga.hostRecvCycles
                                  : app.config_.tcp.recvCost(f.reqWire);
        const Cycles recv_cycles =
            f.target->def().protocol.deserializeCost(f.reqPayload) + rr_tcp;
        f.tcpFrac = tcpShare(rr_tcp, recv_cycles);
        const double kipc_t = app.kernelIpc(ti.server());
        app.chargeNetwork(f.target, static_cast<double>(recv_cycles),
                          kipc_t);
        // No generation check on completion: the receive work is done
        // either way, and deliverToInstance drops abandoned arrivals.
        ti.server().execute(recv_cycles, kipc_t,
                            [r = std::move(r), gen](Tick recv_busy) {
            CallFrame &f = *r;
            f.req->networkTime += recv_busy;
            f.req->tcpProcTime += static_cast<Tick>(
                f.tcpFrac * static_cast<double>(recv_busy));
            f.app->deliverToInstance(*f.callee, std::move(r), gen,
                                     recv_busy);
        });
    };
    if (f.fpgaLat > 0)
        ctx_.schedule(f.fpgaLat, std::move(deliver));
    else
        deliver();
}

void
App::onReplyArrived(CallFrame &f, std::uint32_t gen, RpcStatus status,
                    Tick queueing_tx, Tick prop)
{
    auto finish = [r = CallRef(&f), gen, status, queueing_tx, prop]() {
        CallFrame &f = *r;
        App &app = *f.app;
        if (f.gen != gen)
            return; // late reply; caller moved on
        Request &req = *f.req;
        req.networkTime += queueing_tx + f.fpgaLat;
        req.tcpProcTime += f.fpgaLat;
        req.wireTime += prop;
        f.callerNet += queueing_tx + f.fpgaLat;
        cpu::Server &csrv = app.cluster_.server(f.callerServer);
        const Cycles recv_tcp = app.config_.fpga.enabled
                                    ? app.config_.fpga.hostRecvCycles
                                    : app.config_.tcp.recvCost(f.respWire);
        const Cycles recv_cycles =
            f.target->def().protocol.deserializeCost(f.respPayload) +
            recv_tcp;
        f.tcpFrac = tcpShare(recv_tcp, recv_cycles);
        const double kipc = app.kernelIpc(csrv);
        app.chargeNetwork(f.callerInst ? &f.callerInst->svc() : nullptr,
                          static_cast<double>(recv_cycles), kipc);
        csrv.execute(recv_cycles, kipc,
                     [r = std::move(r), gen, status](Tick recv_busy) {
            CallFrame &f = *r;
            if (f.gen != gen)
                return;
            f.req->networkTime += recv_busy;
            f.req->tcpProcTime += static_cast<Tick>(
                f.tcpFrac * static_cast<double>(recv_busy));
            f.callerNet += recv_busy;
            // Published in the same event that settles the attempt:
            // settleAttempt unwinds synchronously into the issuing
            // stage's continuation, so a concurrent sibling's reply
            // cannot overwrite the outcome before it is read.
            if (f.remoteHit)
                f.req->remoteHit = f.remoteHit;
            f.app->settleAttempt(f, gen, status);
        });
    };
    if (f.fpgaLat > 0)
        ctx_.schedule(f.fpgaLat, std::move(finish));
    else
        finish();
}

void
App::remoteAttempt(CallFrame &f, std::uint32_t gen)
{
    const unsigned home = f.target->homeShard();

    // Forward leg: the caller's NIC pays serialization/queueing here;
    // the wire pays the inter-shard latency the engine lookahead is
    // derived from, so the delivery delay below is always >= lookahead.
    const std::pair<Tick, Tick> fwd =
        network_.crossShardDelay(f.callerServer, f.reqWire);
    Request &req = *f.req;
    req.networkTime += fwd.first;
    req.wireTime += fwd.second;
    f.callerNet += fwd.first;

    RemoteCall call;
    call.replyTo = ReplyAddress{ctx_.shard(), f.index, gen};
    call.tier = f.target->orderIndex();
    call.requestId = req.id;
    call.queryType = req.queryType;
    call.userId = req.userId;
    call.deadline = req.deadline;
    call.route = f.route;
    call.traceId = req.traceId;
    call.parentSpan = f.parentSpan;
    call.attemptNo = f.attemptNo;
    call.reqPayload = f.reqPayload;
    call.respPayload = f.respPayload;
    call.reqWire = f.reqWire;
    call.respWire = f.respWire;

    // The leg names this frame by (index, generation) and keeps it
    // alive until onRemoteReply takes the reference back.
    f.remoteHeld = true;
    retainFrame(&f);
    App *peer = peerApps_[home];
    auto serve = [peer, call]() { peer->serveRemote(call); };
    static_assert(MailCallback::fitsInline<decltype(serve)>());
    ctx_.postToShard(home, fwd.first + fwd.second, std::move(serve));
}

void
App::onRemoteReply(std::uint32_t index, std::uint32_t gen,
                   const RemoteDelta &d)
{
    CallFrame &f = calls_->at(index);
    if (!f.remoteHeld)
        panic(strCat("cross-shard reply for call frame ", index,
                     " without a leg in flight"));
    f.remoteHeld = false;
    CallRef r = CallRef::adopt(&f);
    if (f.gen != gen)
        return; // late reply; the caller's timeout already won
    Request &req = *f.req;
    req.networkTime += d.networkTime;
    req.tcpProcTime += d.tcpProcTime;
    req.wireTime += d.wireTime;
    req.appTime += d.appTime;
    req.queueTime += d.queueTime;
    req.retries += d.retries;
    if (d.dropped)
        req.dropped = true;
    f.remoteHit = d.remoteHit;
    // The local receive step from here on. Its propagation is 0: the
    // delta's wire time already holds the reply leg's.
    onReplyArrived(f, gen, d.status, d.replyQueueing, 0);
}

void
App::settleAttempt(CallFrame &f, std::uint32_t gen, RpcStatus status)
{
    if (f.gen != gen)
        return;
    ++f.gen;
    f.timeoutEv.cancel();
    f.acquireEv.cancel();
    if (f.registeredAt) {
        unregisterAttempt(*f.registeredAt, &f);
        f.registeredAt = nullptr;
    }
    if (f.poolAcquired) {
        // Mirrors the legacy completion order: connection back first,
        // then the caller continues. A timed-out attempt models its
        // connection as closed-and-replaced, which also frees a slot.
        if (!f.poolReleased) {
            f.poolReleased = true;
            f.conn->release();
        }
    } else if (f.ticket != rpc::ConnectionPool::kGrantedImmediately) {
        f.conn->cancel(f.ticket);
    }
    afterAttempt(f, status, ctx_.now() - f.tStart, f.callerNet);
}

void
App::afterAttempt(CallFrame &f, RpcStatus status, Tick wall,
                  Tick caller_net)
{
    if (!f.retryLoop) {
        finishCall(f, status, wall, caller_net);
        return;
    }
    const Tick now = ctx_.now();
    if (f.breaker)
        f.breaker->record(now, status == RpcStatus::Ok);
    if (status == RpcStatus::Ok) {
        finishCall(f, status, wall, caller_net);
        return;
    }
    rpcErrors_->inc();
    recordErrorSpan(*f.req, f.parentSpan, *f.target, f.tStart, f.attemptNo,
                    status);

    const rpc::RetryPolicy &rp = f.target->def().resilience.retry;
    bool retry = rp.enabled() && f.attemptNo < rp.maxAttempts &&
                 status != RpcStatus::DeadlineExceeded;
    if (retry && f.req->deadline && now >= f.req->deadline)
        retry = false;
    if (retry && rp.budgetRatio > 0.0 &&
        !budgetFor(*f.target).tryWithdraw()) {
        rpcRetryBudgetExhausted_->inc();
        retry = false;
    }
    if (!retry) {
        finishCall(f, status, wall, caller_net);
        return;
    }
    rpcRetries_->inc();
    ++f.req->retries;

    // Exponential backoff, decorrelated by jitter drawn from the
    // dedicated resilience stream (never the model RNG).
    Tick backoff = rp.baseBackoff;
    for (unsigned i = 1; i < f.attemptNo && backoff < rp.maxBackoff; ++i)
        backoff *= 2;
    backoff = std::min(backoff, rp.maxBackoff);
    if (rp.jitter > 0.0 && backoff > 0) {
        const double lo = std::clamp(1.0 - rp.jitter, 0.0, 1.0);
        backoff = static_cast<Tick>(static_cast<double>(backoff) *
                                    resilienceRng_.uniform(lo, 1.0));
    }
    ctx_.schedule(backoff,
                  [r = CallRef(&f)]() { r->app->retryAttempt(*r); });
}

void
App::retryAttempt(CallFrame &prev)
{
    const Tick t = ctx_.now();
    if (prev.req->deadline && t >= prev.req->deadline) {
        rpcDeadlineExceeded_->inc();
        rpcErrors_->inc();
        finishCall(prev, RpcStatus::DeadlineExceeded, 0, 0);
        return;
    }
    if (prev.breaker && !prev.breaker->allow(t)) {
        rpcBreakerFastFails_->inc();
        rpcErrors_->inc();
        finishCall(prev, RpcStatus::BreakerOpen, 0, 0);
        return;
    }
    // Late replies of the previous attempt still find their own frame.
    CallRef f(calls_->acquire());
    f->app = this;
    f->callerServer = prev.callerServer;
    f->callerInst = prev.callerInst;
    f->target = prev.target;
    f->req = prev.req;
    f->parentSpan = prev.parentSpan;
    f->reqBytes = prev.reqBytes;
    f->respBytes = prev.respBytes;
    f->carriesMedia = prev.carriesMedia;
    f->retryLoop = prev.retryLoop;
    f->route = prev.route;
    f->breaker = prev.breaker;
    f->done = std::move(prev.done);
    f->attemptNo = prev.attemptNo + 1;
    startAttempt(*f);
}

void
App::finishCall(CallFrame &f, RpcStatus status, Tick wall, Tick caller_net)
{
    RpcDone done = std::move(f.done);
    done(status, wall, caller_net);
}

// -- Home shard of a cross-shard call -------------------------------------

void
App::serveRemote(const RemoteCall &call)
{
    if (call.tier >= serviceOrder_.size())
        fatal("serveRemote: tier index out of range");
    Microservice *tgt = serviceOrder_[call.tier];

    // Shard-local twin of the caller's request: identity copied,
    // accounting zeroed — this shard accumulates its own delta and the
    // caller merges it, so nothing is double counted.
    RequestRef rreq(requests_->acquire());
    rreq->id = call.requestId;
    rreq->queryType = call.queryType;
    rreq->userId = call.userId;
    rreq->deadline = call.deadline;
    rreq->dataKey = call.route.key;
    rreq->traceId = call.traceId;

    // A served frame stands in for the remote caller: the handler
    // replies to it, and its reply leg posts the delta back.
    CallRef f(calls_->acquire());
    f->app = this;
    f->served = true;
    f->replyTo = call.replyTo;
    f->target = tgt;
    f->req = std::move(rreq);
    f->parentSpan = call.parentSpan;
    f->route = call.route;
    f->attemptNo = call.attemptNo;
    f->reqPayload = call.reqPayload;
    f->respPayload = call.respPayload;
    f->reqWire = call.reqWire;
    f->respWire = call.respWire;

    // The keyed store access the issuing stage could not perform
    // locally: done here, on the shard that owns the store, with the
    // outcome shipped back in the delta.
    if (call.route.storeAccess)
        f->remoteHit =
            tgt->keyedAccess(call.route.key, ctx_.now(), call.route.write)
                ? 2
                : 1;

    RpcStatus status = RpcStatus::Ok;
    f->callee = pickCallee(*f, status);
    if (!f->callee) {
        // Unservable key (downed ring owner). Partition mode rejects
        // fault schedules so this is defensive, but reply rather than
        // abort: the typed status travels back like any other outcome.
        RemoteDelta d;
        d.remoteHit = f->remoteHit;
        d.status = status;
        postDelta(call.replyTo, d, network_.config().wireLatency);
        return;
    }
    // The local receive step from here on. Its NIC queueing and
    // propagation are 0: the caller's shard charged the forward leg.
    onRequestArrived(*f, f->gen, 0, 0);
}

void
App::postDelta(const ReplyAddress &to, const RemoteDelta &d, Tick delay)
{
    App *peer = peerApps_[to.shard];
    auto back = [peer, index = to.frame, gen = to.gen, d]() {
        peer->onRemoteReply(index, gen, d);
    };
    static_assert(MailCallback::fitsInline<decltype(back)>());
    ctx_.postToShard(to.shard, delay, std::move(back));
}

// -- Server side: arrival, handler, reply ---------------------------------

void
App::deliverToInstance(Instance &inst, CallRef call, std::uint32_t gen,
                       Tick pre_network)
{
    if (call->gen != gen)
        return; // caller settled while the request was on the wire
    Request &req = *call->req;

    // Injected transient errors fail the request at arrival: the
    // server spends reply-path cycles sending the error back, which is
    // what a process returning 5xx costs.
    if (faultHook_ && faultHook_->shouldFailRequest(inst.svc())) {
        ++inst.failed_;
        refuse(inst, std::move(call), gen, RpcStatus::Error);
        return;
    }

    // Deadline admission: never queue work whose caller chain has
    // already given up (deadline propagation).
    if (req.deadline && ctx_.now() >= req.deadline) {
        rpcDeadlineExceeded_->inc();
        ++inst.failed_;
        refuse(inst, std::move(call), gen, RpcStatus::DeadlineExceeded);
        return;
    }

    // Queue admission. Without QoS the instance queue is one FIFO that
    // sheds at the tier's shedQueueLength, then overflows at its
    // queueCapacity; with QoS the class policy decides alone. Every
    // refusal but a dropped request is a typed fast-reject on the reply
    // wire — the caller's breaker and retry budget see an immediate
    // error, not a timeout.
    const rpc::ResiliencePolicy &pol = inst.svc().def().resilience;
    const QosClass cls = qosClassOf(req.queryType);
    const auto ci = static_cast<std::size_t>(cls);
    const AdmissionVerdict verdict =
        inst.queue_.offer(cls, ctx_.now(), pol.shedQueueLength);
    if (qosEnabled_) {
        admVerdicts_[static_cast<std::size_t>(verdict)][ci]->inc();
        if (verdict != AdmissionVerdict::Admit && obsTap_)
            obsTap_->onAdmissionReject(inst.svc());
    }
    switch (verdict) {
      case AdmissionVerdict::Admit:
        break;
      case AdmissionVerdict::Throttled:
        ++inst.failed_;
        refuse(inst, std::move(call), gen, RpcStatus::Throttled);
        return;
      case AdmissionVerdict::Shed:
        // Load shedding: refuse early with a cheap, retryable error
        // instead of letting the queue grow to the overflow cliff.
        rpcShed_->inc();
        ++inst.failed_;
        refuse(inst, std::move(call), gen, RpcStatus::Shed);
        return;
      case AdmissionVerdict::Overflow:
        ++inst.dropped_;
        if (!qosEnabled_ && !pol.active()) {
            // Plain queue overflow: mark the end-to-end request
            // dropped and unwind through the normal reply path.
            req.dropped = true;
            refuse(inst, std::move(call), gen, RpcStatus::Ok);
        } else {
            // Under QoS or a resilience policy, overflow is a
            // retryable per-attempt error rather than a silent kill.
            refuse(inst, std::move(call), gen, RpcStatus::Overflow);
        }
        return;
    }
    Instance::Arrival arrival{std::move(call), gen, ctx_.now(), pre_network};
    if (inst.queue_.empty() && inst.freeThreads_ > 0) {
        // A free thread takes it at once: what the queue round trip
        // would do, WRR credit included, without cycling deque blocks.
        inst.queue_.bypass(cls);
        if (qosEnabled_)
            admServed_[ci]->inc();
        startHandler(inst, arrival, cls);
        return;
    }
    inst.queue_.push(cls, std::move(arrival));
    maybeStartHandling(inst);
}

void
App::refuse(Instance &inst, CallRef call, std::uint32_t gen,
            RpcStatus status)
{
    HandlerRef h(handlers_->acquire());
    h->app = this;
    h->inst = &inst;
    h->respPayload = call->respPayload;
    h->respWire = call->respWire;
    h->fpgaLat = call->fpgaLat;
    h->call = std::move(call);
    h->callGen = gen;
    reply(*h, status);
}

void
App::maybeStartHandling(Instance &inst)
{
    while (inst.freeThreads_ > 0) {
        Instance::Arrival a;
        QosClass cls;
        if (!inst.queue_.pop(cls, a))
            break;
        if (a.call->gen != a.gen) {
            // The caller timed out while this sat in the queue; skip
            // it without burning a worker thread on dead work.
            rpcAbandonedArrivals_->inc();
            continue;
        }
        if (qosEnabled_)
            admServed_[static_cast<std::size_t>(cls)]->inc();
        startHandler(inst, a, cls);
    }
}

void
App::startHandler(Instance &inst, Instance::Arrival &a, QosClass cls)
{
    --inst.freeThreads_;
    HandlerRef h(handlers_->acquire());
    const CallFrame &f = *a.call;
    Request &req = *f.req;
    h->app = this;
    h->inst = &inst;
    h->handled = true;
    h->epoch = inst.crashEpoch_;
    h->respPayload = f.respPayload;
    h->respWire = f.respWire;
    h->fpgaLat = f.fpgaLat;
    trace::Span &span = h->span;
    span.traceId = req.traceId;
    span.spanId = ids_.nextSpan();
    span.parentSpanId = f.parentSpan;
    span.service = inst.svc().traceServiceId();
    span.instance = inst.index();
    span.queryType = req.queryType;
    span.attempt = static_cast<std::uint8_t>(std::min(f.attemptNo, 255u));
    span.qosClass = static_cast<std::uint8_t>(cls);
    // Arrival is timestamped before kernel receive processing.
    span.start =
        a.enqueued >= a.preNetworkTime ? a.enqueued - a.preNetworkTime : 0;
    span.queueTime = ctx_.now() - a.enqueued;
    span.networkTime = a.preNetworkTime;
    req.queueTime += span.queueTime;
    h->call = std::move(a.call);
    h->callGen = a.gen;
    runStages(*h);
}

void
App::advance(HandlerFrame &h)
{
    ++h.stage;
    runStages(h);
}

void
App::noteDownstream(HandlerFrame &h, RpcStatus status, Tick wall,
                    Tick caller_net)
{
    h.span.networkTime += caller_net;
    h.span.downstreamWait += wall > caller_net ? wall - caller_net : 0;
    if (status != RpcStatus::Ok && h.span.status == 0)
        h.span.status = static_cast<std::uint8_t>(status);
}

void
App::runStages(HandlerFrame &h)
{
    Microservice &svc = h.inst->svc();
    const std::vector<Stage> &stages = svc.def().handler.stages;
    const StagePlan *plans = stagePlans(svc);
    Request &req = h.req();
    const QueryType &qt = queryTypes_[req.queryType];
    const std::uint64_t tags = queryTags_[req.queryType];
    for (;; ++h.stage) {
        // Once a downstream dependency failed for good, abort the
        // handler: the remaining stages would compute on behalf of a
        // request that is already doomed, and the error must surface to
        // the caller now.
        if (h.span.status != 0 || h.stage >= stages.size()) {
            finishHandler(h);
            return;
        }
        const Stage &st = stages[h.stage];
        const StagePlan &plan = plans[h.stage];
        if (plan.tagBit && !(tags & plan.tagBit))
            continue;
        if (st.probability < 1.0 && !rng_.bernoulli(st.probability))
            continue;

        switch (st.kind) {
          case Stage::Kind::Compute: {
            const auto &prof = svc.def().profile;
            const double cycles =
                std::max(0.0, st.computeCycles.sample(rng_)) *
                qt.computeScale;
            const double cpu_cycles = cycles * (1.0 - prof.ioBoundFraction);
            const double io_cycles = cycles - cpu_cycles;
            cpu::Server &server = h.inst->server();
            const double ipc = serviceIpc(*h.inst);
            // I/O waits do not consume the core and do not stretch when
            // frequency drops: convert at the *nominal* frequency.
            const double nominal_ghz =
                server.model().nominalFreqMhz / 1000.0;
            const Tick io_ns = static_cast<Tick>(
                io_cycles / std::max(1e-9, ipc * nominal_ghz));
            chargeCompute(svc, cpu_cycles, ipc);
            server.execute(static_cast<Cycles>(cpu_cycles), ipc,
                           [hr = HandlerRef(&h), io_ns](Tick busy) {
                HandlerFrame &h = *hr;
                h.inst->cpuBusyTime_ += busy;
                const Tick work = busy + io_ns;
                auto fin = [hr, work]() {
                    hr->span.appTime += work;
                    hr->req().appTime += work;
                    hr->app->advance(*hr);
                };
                if (io_ns > 0)
                    h.app->ctx_.schedule(io_ns, std::move(fin));
                else
                    fin();
            });
            return;
          }
          case Stage::Kind::Call: {
            if (st.fanout == 0)
                continue;
            if (!st.parallel) {
                callSequential(h, 0);
                return;
            }
            // Parallel fanout: the frame is the join.
            h.pending = st.fanout;
            h.netSum = 0;
            h.callStart = ctx_.now();
            const unsigned server_id = h.inst->server().id();
            for (unsigned i = 0; i < st.fanout; ++i) {
                rpcCall(server_id, h.inst, *plan.target, h.call->req,
                        h.span.spanId, st.requestBytes, st.responseBytes,
                        st.carriesMedia,
                        [hr = HandlerRef(&h)](RpcStatus status, Tick,
                                              Tick caller_net) {
                    HandlerFrame &h = *hr;
                    // A parallel fanout fails if any branch fails;
                    // first failure wins the join status.
                    if (status != RpcStatus::Ok && h.span.status == 0)
                        h.span.status = static_cast<std::uint8_t>(status);
                    h.netSum += caller_net;
                    if (--h.pending > 0)
                        return;
                    const Tick wall_total =
                        h.app->ctx_.now() - h.callStart;
                    h.span.networkTime += h.netSum;
                    h.span.downstreamWait += wall_total > h.netSum
                                                 ? wall_total - h.netSum
                                                 : 0;
                    h.app->advance(h);
                });
            }
            return;
          }
          case Stage::Kind::Delay: {
            const Tick d = static_cast<Tick>(
                std::max(0.0, st.delayNs.sample(rng_)));
            const bool is_net = st.delayIsNetwork;
            ctx_.schedule(d, [hr = HandlerRef(&h), d, is_net]() {
                HandlerFrame &h = *hr;
                if (is_net) {
                    h.span.networkTime += d;
                    h.req().networkTime += d;
                } else {
                    h.span.appTime += d;
                    h.req().appTime += d;
                }
                h.app->advance(h);
            });
            return;
          }
          case Stage::Kind::Cache: {
            Microservice *cache_tier = plan.target;
            // Keyed mode: draw the accessed key and let hit/miss emerge
            // from the owning shard's bounded store. Legacy mode keeps
            // the fixed-probability coin flip — the same single RNG
            // draw at the same point in the event stream, so
            // configurations without a keyspace stay bit-identical.
            bool hit;
            Tick quorum_delay = 0;
            data::RouteHint route;
            // Partitioned worlds: a keyed store homed on another shard
            // cannot be touched from here — the access rides the RPC to
            // the home shard (route.storeAccess) and the outcome
            // returns in req.remoteHit, counted in afterCache.
            bool remote_keyed = false;
            if (st.keyed && keyspace_) {
                const std::uint64_t key =
                    keyspace_->sampleKey(rng_, ctx_.now());
                req.dataKey = key;
                const bool is_write = (tags & writeTag_) != 0;
                route = {key, true, is_write};
                remote_keyed = partitioned_ &&
                               cache_tier->homeShard() != ctx_.shard();
                if (remote_keyed) {
                    hit = false;
                } else if (cache_tier->replicated()) {
                    if (is_write && replicationConfig_.txnEnabled()) {
                        // Multi-partition transaction: this write
                        // touches txnKeys keys; distinct groups go
                        // through 2PC. Extra key draws happen only on
                        // this opt-in path.
                        std::vector<std::uint64_t> keys{key};
                        for (unsigned k = 1;
                             k < replicationConfig_.txnKeys; ++k)
                            keys.push_back(
                                keyspace_->sampleKey(rng_, ctx_.now()));
                        if (h.span.dataMisses != 255)
                            ++h.span.dataMisses;
                        runTxnStage(h, st, plan, std::move(keys));
                        return;
                    }
                    const Microservice::ReplicatedAccess acc =
                        cache_tier->replicatedAccess(key, ctx_.now(),
                                                     is_write);
                    // A typed reject leaves the store untouched; the
                    // RPC below fails with the same status at attempt
                    // time and degrades to a miss (db fallthrough keeps
                    // serving).
                    hit = acc.hit;
                    quorum_delay = acc.quorumDelay;
                } else {
                    hit = cache_tier->keyedAccess(key, ctx_.now(),
                                                  is_write);
                }
                if (!remote_keyed) {
                    if (hit) {
                        if (h.span.dataHits != 255)
                            ++h.span.dataHits;
                    } else if (h.span.dataMisses != 255) {
                        ++h.span.dataMisses;
                    }
                }
            } else {
                hit = rng_.bernoulli(st.hitRatio);
            }
            h.cacheHit = hit;
            h.remoteKeyed = remote_keyed;
            h.quorumDelay = quorum_delay;
            h.route = route;
            // Only the cache-tier hop carries the store access; the db
            // fallthrough routes by the same key but touches no store.
            data::RouteHint cache_route = route;
            cache_route.storeAccess = remote_keyed;
            rpcCall(h.inst->server().id(), h.inst, *cache_tier, h.call->req,
                    h.span.spanId, st.requestBytes, st.responseBytes,
                    st.carriesMedia,
                    [hr = HandlerRef(&h)](RpcStatus status, Tick wall,
                                          Tick caller_net) {
                HandlerFrame &h = *hr;
                h.span.networkTime += caller_net;
                h.span.downstreamWait +=
                    wall > caller_net ? wall - caller_net : 0;
                if (h.quorumDelay > 0 && status == RpcStatus::Ok) {
                    // Quorum write: the handler blocks until the W-th
                    // ack — the (W-1)-th fastest follower's apply lag.
                    h.span.downstreamWait += h.quorumDelay;
                    h.app->ctx_.schedule(h.quorumDelay, [hr, status]() {
                        hr->app->afterCache(*hr, status);
                    });
                } else {
                    h.app->afterCache(h, status);
                }
            },
                    cache_route);
            return;
          }
        }
        panic("unhandled stage kind");
    }
}

void
App::callSequential(HandlerFrame &h, unsigned i)
{
    Microservice &svc = h.inst->svc();
    const Stage &st = svc.def().handler.stages[h.stage];
    if (i >= st.fanout) {
        advance(h);
        return;
    }
    rpcCall(h.inst->server().id(), h.inst, *stagePlans(svc)[h.stage].target,
            h.call->req, h.span.spanId, st.requestBytes, st.responseBytes,
            st.carriesMedia,
            [hr = HandlerRef(&h), i](RpcStatus status, Tick wall,
                                     Tick caller_net) {
        HandlerFrame &h = *hr;
        h.app->noteDownstream(h, status, wall, caller_net);
        if (status != RpcStatus::Ok)
            h.app->advance(h); // skip the remaining sequential calls
        else
            h.app->callSequential(h, i + 1);
    });
}

void
App::afterCache(HandlerFrame &h, RpcStatus status)
{
    bool hit = h.cacheHit;
    if (h.remoteKeyed) {
        // The home shard's outcome, published in the same event that
        // settled the attempt. A failed RPC counts as a miss: the reply
        // (and the outcome) never arrived.
        hit = status == RpcStatus::Ok && h.req().remoteHit == 2;
        if (hit) {
            if (h.span.dataHits != 255)
                ++h.span.dataHits;
        } else if (h.span.dataMisses != 255) {
            ++h.span.dataMisses;
        }
    }
    Microservice &svc = h.inst->svc();
    const Stage &st = svc.def().handler.stages[h.stage];
    Microservice *db = stagePlans(svc)[h.stage].db;
    // A failed cache lookup degrades to a miss: fall through to the
    // backing store when one exists (cache-aside pattern).
    if ((hit && status == RpcStatus::Ok) || !db) {
        if (status != RpcStatus::Ok && !db && h.span.status == 0)
            h.span.status = static_cast<std::uint8_t>(status);
        advance(h);
        return;
    }
    // The backing store shards by the same key when it is ring-managed,
    // so hot keys hammer one DB shard too.
    const data::RouteHint db_route =
        db->keyedRouting() ? h.route : data::RouteHint{};
    rpcCall(h.inst->server().id(), h.inst, *db, h.call->req, h.span.spanId,
            st.requestBytes, st.responseBytes, st.carriesMedia,
            [hr = HandlerRef(&h)](RpcStatus status2, Tick wall2,
                                  Tick caller_net2) {
        hr->app->noteDownstream(*hr, status2, wall2, caller_net2);
        hr->app->advance(*hr);
    },
            db_route);
}

void
App::runTxnStage(HandlerFrame &h, const Stage &stage, const StagePlan &plan,
                 std::vector<std::uint64_t> keys)
{
    if (rpcTxnStarted_)
        rpcTxnStarted_->inc();
    Microservice *tier = plan.target;
    const unsigned server_id = h.inst->server().id();

    // One prepare per distinct replica group, addressed by the first
    // key that mapped there. A transaction whose keys all hash to one
    // group degenerates to single-partition 2PC: one prepare, one
    // commit, no cross-group coordination cost.
    std::vector<std::uint64_t> group_keys;
    std::vector<unsigned> groups;
    for (std::uint64_t k : keys) {
        const unsigned g = tier->shardIndexForKey(k);
        if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
            groups.push_back(g);
            group_keys.push_back(k);
        }
    }

    // The coordinator's state (an opt-in path, so it is not pooled).
    // Its decision point fires once, by the last prepare ack or by the
    // abort timer — whichever comes first.
    struct TxnState
    {
        HandlerRef h;
        Microservice *tier = nullptr;
        Microservice *db = nullptr;
        const Stage *stage = nullptr;
        unsigned serverId = 0;
        std::vector<std::uint64_t> groupKeys;
        std::uint64_t primary = 0;
        unsigned remaining = 0;
        bool failed = false;
        bool settled = false;

        void
        settle(bool ok)
        {
            if (settled)
                return;
            settled = true;
            App &app = *h->app;
            auto abort_txn = [&]() {
                if (app.rpcTxnAborts_)
                    app.rpcTxnAborts_->inc();
                tier->noteTxnAbort();
                if (h->span.status == 0)
                    h->span.status =
                        static_cast<std::uint8_t>(RpcStatus::TxnAborted);
                app.advance(*h);
            };
            if (!ok) {
                abort_txn();
                return;
            }
            // Commit phase: apply every group's write. Quorum
            // membership may have shifted since the prepares acked (a
            // leader crash in the window), in which case the
            // transaction still aborts.
            Tick delay = 0;
            for (std::uint64_t k : groupKeys) {
                const Microservice::ReplicatedAccess acc =
                    tier->replicatedAccess(k, app.ctx_.now(), true);
                if (acc.status != trace::SpanStatus::Ok) {
                    abort_txn();
                    return;
                }
                delay = std::max(delay, acc.quorumDelay);
            }
            if (app.rpcTxnCommits_)
                app.rpcTxnCommits_->inc();
            auto after = [hr = h, db = db, stage = stage,
                          server_id = serverId, primary = primary]() {
                HandlerFrame &h = *hr;
                if (!db) {
                    h.app->advance(h);
                    return;
                }
                // Write-through: the transaction's primary key carries
                // the backing-store update, same as the single-key miss
                // path.
                const data::RouteHint db_route =
                    db->keyedRouting() ? data::RouteHint{primary, true, true}
                                       : data::RouteHint{};
                h.app->rpcCall(server_id, h.inst, *db, h.call->req,
                               h.span.spanId, stage->requestBytes,
                               stage->responseBytes, stage->carriesMedia,
                               [hr](RpcStatus status2, Tick wall2,
                                    Tick caller_net2) {
                    hr->app->noteDownstream(*hr, status2, wall2,
                                            caller_net2);
                    hr->app->advance(*hr);
                },
                               db_route);
            };
            if (delay > 0) {
                // The coordinator blocks until the slowest group's W-th
                // ack has landed.
                h->span.downstreamWait += delay;
                app.ctx_.schedule(delay, std::move(after));
            } else {
                after();
            }
        }
    };
    auto st = std::make_shared<TxnState>();
    st->h = HandlerRef(&h);
    st->tier = tier;
    st->db = plan.db;
    st->stage = &stage;
    st->serverId = server_id;
    st->primary = keys.front();
    st->remaining = static_cast<unsigned>(group_keys.size());
    st->groupKeys = group_keys;

    // Coordinator deadline on the prepare phase: a late ack finds the
    // transaction already settled (the guard makes the timer a no-op
    // once a decision is taken).
    ctx_.schedule(replicationConfig_.txnPrepareTimeout,
                  [st]() { st->settle(false); });

    for (std::uint64_t key : group_keys) {
        const data::RouteHint prep_route{key, true, true};
        rpcCall(server_id, h.inst, *tier, h.call->req, h.span.spanId,
                stage.requestBytes, stage.responseBytes, stage.carriesMedia,
                [st](RpcStatus status, Tick wall, Tick caller_net) {
            HandlerFrame &h = *st->h;
            h.span.networkTime += caller_net;
            h.span.downstreamWait +=
                wall > caller_net ? wall - caller_net : 0;
            if (status != RpcStatus::Ok)
                st->failed = true;
            if (--st->remaining == 0)
                st->settle(!st->failed);
        },
                prep_route);
    }
}

void
App::finishHandler(HandlerFrame &h)
{
    if (h.cancelled())
        return;
    Instance &inst = *h.inst;
    ++inst.freeThreads_;
    // The reply path does not hold a worker thread; pull the next
    // queued request in before responding.
    maybeStartHandling(inst);
    reply(h, h.span.statusEnum());
}

void
App::reply(HandlerFrame &h, RpcStatus status)
{
    // Error replies still traverse the wire — a refusal is a message
    // too. A late reply (the caller already settled) is sent all the
    // same; only the caller-side continuation stops.
    if (h.replied)
        panic("handler frame replied twice");
    h.replied = true;
    Instance &ti = *h.inst;
    const bool fpga = !h.call->served && config_.fpga.enabled;
    const Cycles reply_tcp = fpga ? config_.fpga.hostSendCycles
                                  : config_.tcp.sendCost(h.respWire);
    const Cycles reply_cycles =
        ti.svc().def().protocol.serializeCost(h.respPayload) + reply_tcp;
    h.replyStatus = status;
    h.replyTcpFrac = tcpShare(reply_tcp, reply_cycles);
    const double kipc_t = kernelIpc(ti.server());
    chargeNetwork(&ti.svc(), static_cast<double>(reply_cycles), kipc_t);
    ti.server().execute(reply_cycles, kipc_t,
                        [hr = HandlerRef(&h)](Tick reply_busy) {
        hr->app->onReplySent(*hr, reply_busy);
    });
}

void
App::onReplySent(HandlerFrame &h, Tick reply_busy)
{
    const CallFrame &f = *h.call;
    Request &req = *f.req;
    req.networkTime += reply_busy;
    req.tcpProcTime += static_cast<Tick>(
        h.replyTcpFrac * static_cast<double>(reply_busy));
    if (h.handled) {
        h.span.networkTime += reply_busy;
        h.span.end = ctx_.now();
        const Tick dur = h.span.duration();
        Microservice &svc = h.inst->svc();
        if (h.replyStatus == RpcStatus::Ok) {
            svc.latencySum_ += static_cast<double>(dur);
            ++h.inst->served_;
            if (obsTap_)
                obsTap_->onTierLatency(svc, dur);
        } else {
            ++h.inst->failed_;
        }
        if (config_.tracing)
            collector_.collect(h.span);
    }
    const unsigned callee_server = h.inst->server().id();
    if (f.served) {
        // Reply leg of a cross-shard call: this shard's NIC pays the tx
        // queueing, the wire pays the inter-shard latency — so the post
        // delay is always >= the engine lookahead.
        const std::pair<Tick, Tick> rep =
            network_.crossShardDelay(callee_server, f.respWire);
        RemoteDelta d;
        d.networkTime = req.networkTime;
        d.tcpProcTime = req.tcpProcTime;
        d.wireTime = req.wireTime + rep.second;
        d.appTime = req.appTime;
        d.queueTime = req.queueTime;
        d.replyQueueing = rep.first;
        d.retries = req.retries;
        d.remoteHit = f.remoteHit;
        d.dropped = req.dropped;
        d.status = h.replyStatus;
        postDelta(f.replyTo, d, rep.first + rep.second);
        return;
    }
    network_.send(callee_server, f.callerServer, h.respWire,
                  [r = h.call, gen = h.callGen,
                   status = h.replyStatus](Tick queueing_tx, Tick prop) {
        r->app->onReplyArrived(*r, gen, status, queueing_tx, prop);
    });
}

// -- Entry ------------------------------------------------------------------

void
App::inject(unsigned query_type, std::uint64_t user_id, CompletionFn done)
{
    if (!clientServer_)
        fatal("App::inject without a client server");
    if (queryTypes_.empty())
        addQueryType(QueryType{});
    if (query_type >= queryTypes_.size())
        fatal(strCat("unknown query type ", query_type));

    RequestRef req(requests_->acquire());
    req->id = nextRequestId_++;
    req->queryType = query_type;
    req->userId = user_id;
    req->injectTime = ctx_.now();
    if (config_.requestDeadline > 0)
        req->deadline = ctx_.now() + config_.requestDeadline;
    req->traceId = config_.tracing ? ids_.nextTrace() : 0;
    injected_->inc();

    const trace::SpanId client_span_id = ids_.nextSpan();

    Microservice &entry = entrySvc_ ? *entrySvc_ : service(entry_);
    rpcCall(clientServer_->id(), nullptr, entry, req, client_span_id,
            config_.clientRequestBytes, config_.clientResponseBytes,
            /*carries_media=*/true,
            [this, req, client_span_id,
             done = std::move(done)](RpcStatus status, Tick wall,
                                     Tick caller_net) {
        (void)wall;
        req->completeTime = ctx_.now();
        if (status != RpcStatus::Ok) {
            // The entry RPC failed after all client-side resilience was
            // exhausted: a user-visible error, distinct from a silent
            // legacy queue drop.
            req->failStatus = static_cast<std::uint8_t>(status);
            requestsFailed_->inc();
        } else if (req->dropped) {
            droppedRequests_->inc();
        } else {
            completed_->inc();
            const Tick lat = req->latency();
            e2eByQuery_[req->queryType]->record(lat);
            if (lat <= config_.qosLatency)
                completedInQos_->inc();
            totalNetworkTime_ += static_cast<double>(req->networkTime);
            totalAppTime_ += static_cast<double>(req->appTime);
        }
        if (obsTap_)
            obsTap_->onEndToEnd(req->latency(),
                                status == RpcStatus::Ok && !req->dropped);
        if (config_.tracing) {
            trace::Span client_span;
            client_span.traceId = req->traceId;
            client_span.spanId = client_span_id;
            client_span.parentSpanId = trace::kNoParent;
            client_span.service = clientServiceId_;
            client_span.queryType = req->queryType;
            client_span.start = req->injectTime;
            client_span.end = req->completeTime;
            client_span.networkTime = caller_net;
            client_span.status = static_cast<std::uint8_t>(status);
            client_span.attempt = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(req->retries + 1, 255));
            collector_.collect(client_span);
        }
        if (done)
            done(*req);
    });
}

QuantileSketch
App::endToEndLatency() const
{
    QuantileSketch all;
    for (const auto &h : e2eByQuery_)
        all.merge(*h);
    return all;
}

const QuantileSketch &
App::endToEndLatencyFor(unsigned query_type) const
{
    if (query_type >= e2eByQuery_.size())
        fatal(strCat("unknown query type ", query_type));
    return *e2eByQuery_[query_type];
}

double
App::meanNetworkTimePerRequest() const
{
    const std::uint64_t n = completed();
    return n ? totalNetworkTime_ / static_cast<double>(n) : 0.0;
}

double
App::meanAppTimePerRequest() const
{
    const std::uint64_t n = completed();
    return n ? totalAppTime_ / static_cast<double>(n) : 0.0;
}

void
App::statReset()
{
    for (auto &h : e2eByQuery_)
        h->reset();
    metrics_.resetAll();
    totalNetworkTime_ = 0.0;
    totalAppTime_ = 0.0;
    traceStore_.clear();
    for (Microservice *svc : serviceOrder_) {
        svc->latencySum_ = 0.0;
        for (const auto &inst : svc->instances()) {
            inst->served_ = 0;
            inst->dropped_ = 0;
            inst->failed_ = 0;
            inst->cpuBusyTime_ = 0;
        }
    }
    cluster_.statResetAll();
}

} // namespace uqsim::service
