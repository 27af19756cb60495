#include "service/app.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/logging.hh"

namespace uqsim::service {

/** One of an App's live counters, sharing the App's LiveCounts. */
using LiveCount = std::shared_ptr<std::atomic<std::int64_t>>;

/** Counts its owner in one of an App's live counters while it exists. */
class LiveToken
{
  public:
    explicit LiveToken(LiveCount n)
        : n_(std::move(n))
    {
        ++*n_;
    }
    LiveToken(const LiveToken &) = delete;
    LiveToken &operator=(const LiveToken &) = delete;
    ~LiveToken() { --*n_; }

  private:
    LiveCount n_;
};

/** A Request counted in App::liveRequests(). */
struct CountedRequest : Request
{
    explicit CountedRequest(LiveCount n)
        : live(std::move(n))
    {
    }
    LiveToken live;
};

/**
 * Per-RPC handler execution context: the request being served at one
 * instance, plus the span under construction. Shared between the stage
 * interpreter and the reply continuation.
 */
struct HandlerCtx
{
    explicit HandlerCtx(LiveCount n)
        : live(std::move(n))
    {
    }
    LiveToken live;
    Instance *inst = nullptr;
    RequestPtr req;
    trace::Span span;
    /** Reply continuation installed by rpcAttempt. */
    std::function<void(std::shared_ptr<HandlerCtx>, RpcStatus)> respond;
};

/**
 * Shared state of one RPC attempt. Settling (success, timeout, crash,
 * refusal) happens exactly once through App::settleAttempt; the
 * `settled` flag is shared with the server-side Arrival so zombie
 * continuations — late replies, deliveries of abandoned requests —
 * can detect they lost the race and quietly stop.
 */
struct AttemptState
{
    std::shared_ptr<bool> settled = std::make_shared<bool>(false);
    App *app = nullptr;
    rpc::ConnectionPool *pool = nullptr;
    rpc::ConnectionPool::Ticket ticket =
        rpc::ConnectionPool::kGrantedImmediately;
    bool poolAcquired = false;
    bool poolReleased = false;
    EventHandle timeoutEv;
    EventHandle acquireEv;
    /** Target instance while registered for crash tracking. */
    Instance *target = nullptr;
    bool registered = false;
    Tick tStart = 0;
    Tick callerNet = 0;
    RpcDone done;

    ~AttemptState()
    {
        // An attempt can die without settling (e.g. its message was
        // dropped by a partition and no timeout was set); keep the
        // crash registry free of dangling pointers regardless.
        if (registered && app && target)
            app->unregisterAttempt(*target, this);
    }
};

App::App(SimContext ctx, cpu::Cluster &cluster, net::Network &network,
         Config config, std::uint64_t seed)
    : ctx_(ctx), cluster_(cluster), network_(network),
      config_(std::move(config)), rng_(seed),
      resilienceRng_(seed ^ 0x524553494c49454eull),
      traceStore_(config_.traceCapacity), collector_(traceStore_)
{
    collector_.setEnabled(config_.tracing);
    collector_.setSampleEvery(config_.traceSampleEvery);
    collector_.bindMetrics(metrics_);
    clientServiceId_ = traceStore_.intern("client");

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
}

unsigned
App::addQueryType(QueryType qt)
{
    queryTypes_.push_back(std::move(qt));
    e2eByQuery_.push_back(std::make_unique<Histogram>());
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
    auto it = kernelIpcCache_.find(server.model().name);
    if (it != kernelIpcCache_.end())
        return it->second;
    // Static profile of the kernel TCP/IP path: moderate footprint,
    // fully kernel-mode, memory-touching code.
    cpu::ServiceProfile kp;
    kp.name = "kernel-tcp";
    kp.codeFootprintKb = 600.0;
    kp.branchEntropy = 0.20;
    kp.memIntensity = 0.40;
    kp.kernelShare = 1.0;
    kp.libShare = 0.0;
    const double ipc = cpu::MicroarchModel::effectiveIpc(kp, server.model());
    kernelIpcCache_[server.model().name] = ipc;
    return ipc;
}

double
App::serviceIpc(const Microservice &svc, const cpu::Server &server)
{
    const std::string key = svc.name() + "/" + server.model().name;
    auto it = serviceIpcCache_.find(key);
    if (it != serviceIpcCache_.end())
        return it->second;
    const double ipc =
        cpu::MicroarchModel::effectiveIpc(svc.def().profile, server.model());
    serviceIpcCache_[key] = ipc;
    return ipc;
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
App::registerAttempt(Instance &inst, AttemptState *as)
{
    inflight_[&inst].push_back(as);
}

void
App::unregisterAttempt(Instance &inst, AttemptState *as)
{
    auto it = inflight_.find(&inst);
    if (it == inflight_.end())
        return;
    auto &v = it->second;
    v.erase(std::remove(v.begin(), v.end(), as), v.end());
    if (v.empty())
        inflight_.erase(it);
}

void
App::failInFlight(Instance &inst)
{
    auto it = inflight_.find(&inst);
    if (it == inflight_.end())
        return;
    // Settling unregisters, so detach the list first.
    std::vector<AttemptState *> victims = std::move(it->second);
    inflight_.erase(it);
    for (AttemptState *as : victims) {
        if (*as->settled)
            continue;
        as->registered = false; // already detached from the registry
        rpcCrashedInFlight_->inc();
        settleAttempt(*as, RpcStatus::Crashed);
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
    if (inst.admission_)
        inst.admission_->clear();
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
    inst.queue_.clear();
    if (inst.admission_)
        inst.admission_->reset(ctx_.now());
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
    if (!config.policy.enabled)
        fatal("enableQos: policy.enabled must be true");
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
    for (unsigned c = 0; c < kQosClassCount; ++c) {
        const char *cls = qosClassName(static_cast<QosClass>(c));
        admAdmitted_[c] =
            &metrics_.counter(strCat("admission.admitted.", cls));
        admServed_[c] =
            &metrics_.counter(strCat("admission.served.", cls));
        admShed_[c] = &metrics_.counter(strCat("admission.shed.", cls));
        admThrottled_[c] =
            &metrics_.counter(strCat("admission.throttled.", cls));
        admOverflow_[c] =
            &metrics_.counter(strCat("admission.overflow.", cls));
    }

    for (Microservice *svc : serviceOrder_) {
        svc->mutableDef().admission = config.policy;
        for (const auto &inst : svc->instances())
            inst->admission_ =
                std::make_unique<AdmissionQueue<Instance::Arrival>>(
                    config.policy, svc->def().queueCapacity,
                    ctx_.now());
    }
    qosEnabled_ = true;
}

QosClass
App::qosClassOf(unsigned query_type) const
{
    return query_type < queryTypes_.size()
               ? queryTypes_[query_type].qosClass
               : QosClass::UserFacing;
}

void
App::settleAttempt(AttemptState &as, RpcStatus status)
{
    if (*as.settled)
        return;
    *as.settled = true;
    as.timeoutEv.cancel();
    as.acquireEv.cancel();
    if (as.registered && as.target) {
        unregisterAttempt(*as.target, &as);
        as.registered = false;
    }
    if (as.poolAcquired) {
        // Mirrors the legacy completion order: connection back first,
        // then the caller continues. A timed-out attempt models its
        // connection as closed-and-replaced, which also frees a slot.
        if (!as.poolReleased) {
            as.poolReleased = true;
            as.pool->release();
        }
    } else if (as.ticket != rpc::ConnectionPool::kGrantedImmediately) {
        as.pool->cancel(as.ticket);
    }
    auto done = std::move(as.done);
    done(status, ctx_.now() - as.tStart, as.callerNet);
}

void
App::recordErrorSpan(const RequestPtr &req, trace::SpanId parent_span,
                     const Microservice &target, Tick start,
                     unsigned attempt_no, RpcStatus status)
{
    if (!config_.tracing)
        return;
    trace::Span sp;
    sp.traceId = req->traceId;
    sp.spanId = ids_.nextSpan();
    sp.parentSpanId = parent_span;
    sp.service = target.traceServiceId();
    sp.instance = 0;
    sp.queryType = req->queryType;
    sp.start = start;
    sp.end = ctx_.now();
    sp.status = static_cast<std::uint8_t>(status);
    sp.attempt = static_cast<std::uint8_t>(std::min(attempt_no, 255u));
    if (qosEnabled_)
        sp.qosClass =
            static_cast<std::uint8_t>(qosClassOf(req->queryType));
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

void
App::rpcCall(unsigned caller_server, Instance *caller_inst,
             Microservice &target, RequestPtr req,
             trace::SpanId parent_span, Bytes req_bytes, Bytes resp_bytes,
             bool carries_media, RpcDone done, data::RouteHint route)
{
    const rpc::ResiliencePolicy &pol = target.def().resilience;
    if (!pol.active()) {
        // Legacy fire-and-wait path: no gates, no retries, no extra
        // events — byte-identical execution to the pre-resilience
        // runtime (the digest tests depend on this).
        rpcAttempt(caller_server, caller_inst, target, req, parent_span,
                   req_bytes, resp_bytes, carries_media, 1,
                   std::move(done), route);
        return;
    }

    App *app = this;
    Microservice *tgt = &target;
    const void *caller_key =
        caller_inst ? static_cast<const void *>(caller_inst)
                    : static_cast<const void *>(this);
    rpc::CircuitBreaker *br =
        pol.breaker.enabled ? &breakerFor(caller_key, target) : nullptr;

    const Tick call_start = ctx_.now();
    if (req->deadline && call_start >= req->deadline) {
        rpcDeadlineExceeded_->inc();
        rpcErrors_->inc();
        recordErrorSpan(req, parent_span, target, call_start, 1,
                        RpcStatus::DeadlineExceeded);
        done(RpcStatus::DeadlineExceeded, 0, 0);
        return;
    }
    if (br && !br->allow(call_start)) {
        rpcBreakerFastFails_->inc();
        rpcErrors_->inc();
        recordErrorSpan(req, parent_span, target, call_start, 1,
                        RpcStatus::BreakerOpen);
        done(RpcStatus::BreakerOpen, 0, 0);
        return;
    }

    // The budget earns on first attempts only, so retry traffic is
    // capped at budgetRatio of the offered load.
    if (pol.retry.enabled() && pol.retry.budgetRatio > 0.0)
        budgetFor(target).onAttempt();

    // Retry loop: ctl->attempt references itself (for rescheduling),
    // so the cycle must be broken explicitly when the call finishes.
    struct RetryCtl
    {
        std::function<void(unsigned)> attempt;
        RpcDone done;
    };
    auto ctl = std::make_shared<RetryCtl>();
    ctl->done = std::move(done);
    auto finish = [ctl](RpcStatus s, Tick w, Tick n) {
        auto d = std::move(ctl->done);
        ctl->attempt = nullptr;
        d(s, w, n);
    };

    ctl->attempt = [app, caller_server, caller_inst, tgt, req, parent_span,
                    req_bytes, resp_bytes, carries_media, route, br, ctl,
                    finish](unsigned attempt_no) {
        const Tick attempt_start = app->ctx_.now();
        app->rpcAttempt(caller_server, caller_inst, *tgt, req, parent_span,
                        req_bytes, resp_bytes, carries_media, attempt_no,
                        [app, tgt, req, parent_span, br, ctl, finish,
                         attempt_no, attempt_start](RpcStatus status,
                                                    Tick wall,
                                                    Tick caller_net) {
            const Tick now = app->ctx_.now();
            if (br)
                br->record(now, status == RpcStatus::Ok);
            if (status == RpcStatus::Ok) {
                finish(status, wall, caller_net);
                return;
            }
            app->rpcErrors_->inc();
            app->recordErrorSpan(req, parent_span, *tgt, attempt_start,
                                 attempt_no, status);

            const rpc::RetryPolicy &rp = tgt->def().resilience.retry;
            bool retry = rp.enabled() && attempt_no < rp.maxAttempts &&
                         status != RpcStatus::DeadlineExceeded;
            if (retry && req->deadline && now >= req->deadline)
                retry = false;
            if (retry && rp.budgetRatio > 0.0 &&
                !app->budgetFor(*tgt).tryWithdraw()) {
                app->rpcRetryBudgetExhausted_->inc();
                retry = false;
            }
            if (!retry) {
                finish(status, wall, caller_net);
                return;
            }
            app->rpcRetries_->inc();
            ++req->retries;

            // Exponential backoff, decorrelated by jitter drawn from
            // the dedicated resilience stream (never the model RNG).
            Tick backoff = rp.baseBackoff;
            for (unsigned i = 1; i < attempt_no && backoff < rp.maxBackoff;
                 ++i)
                backoff *= 2;
            backoff = std::min(backoff, rp.maxBackoff);
            if (rp.jitter > 0.0 && backoff > 0) {
                const double lo =
                    std::clamp(1.0 - rp.jitter, 0.0, 1.0);
                backoff = static_cast<Tick>(
                    static_cast<double>(backoff) *
                    app->resilienceRng_.uniform(lo, 1.0));
            }
            app->ctx_.schedule(backoff, [app, tgt, req, br, ctl, finish,
                                         attempt_no]() {
                const Tick t = app->ctx_.now();
                if (req->deadline && t >= req->deadline) {
                    app->rpcDeadlineExceeded_->inc();
                    app->rpcErrors_->inc();
                    finish(RpcStatus::DeadlineExceeded, 0, 0);
                    return;
                }
                if (br && !br->allow(t)) {
                    app->rpcBreakerFastFails_->inc();
                    app->rpcErrors_->inc();
                    finish(RpcStatus::BreakerOpen, 0, 0);
                    return;
                }
                ctl->attempt(attempt_no + 1);
            });
        },
                        route);
    };
    ctl->attempt(1);
}

void
App::rpcAttempt(unsigned caller_server, Instance *caller_inst,
                Microservice &target, RequestPtr req,
                trace::SpanId parent_span, Bytes req_bytes,
                Bytes resp_bytes, bool carries_media, unsigned attempt_no,
                RpcDone done, data::RouteHint route)
{
    // Capture only pointers to stable objects (the App owns services;
    // ServiceDef, pools and instances never move during a run).
    App *app = this;
    Microservice *tgt = &target;
    const rpc::ProtocolModel *proto = &target.def().protocol;

    const QueryType &qt = queryTypes_[req->queryType];
    const Bytes req_payload =
        (req_bytes ? req_bytes : target.def().defaultRequestBytes) +
        (carries_media ? qt.extraPayloadBytes : 0);
    const Bytes resp_payload =
        resp_bytes ? resp_bytes : target.def().defaultResponseBytes;
    const Bytes req_wire = proto->wireSize(req_payload);
    const Bytes resp_wire = proto->wireSize(resp_payload);

    const void *caller_key =
        caller_inst ? static_cast<const void *>(caller_inst)
                    : static_cast<const void *>(this);
    rpc::ConnectionPool *pool = &poolFor(caller_key, target);
    Microservice *caller_svc = caller_inst ? &caller_inst->svc() : nullptr;

    const rpc::ResiliencePolicy *pol = &target.def().resilience;
    // Crash-aware selection + zombie guards engage with any policy or
    // armed fault schedule; the plain path stays exactly legacy.
    const bool resilient = pol->active() || crashTracking_;

    auto as = std::make_shared<AttemptState>();
    as->app = this;
    as->pool = pool;
    as->tStart = ctx_.now();
    as->done = std::move(done);

    // Per-attempt timeout, capped to the remaining deadline budget so
    // a deep call chain never waits past its caller's patience. When
    // the deadline is the binding constraint, expiry is reported as
    // DeadlineExceeded, not a generic timeout.
    Tick eff_timeout = pol->timeout;
    bool deadline_bound = false;
    if (req->deadline) {
        const Tick remaining =
            req->deadline > as->tStart ? req->deadline - as->tStart : 1;
        if (eff_timeout == 0 || remaining < eff_timeout) {
            eff_timeout = remaining;
            deadline_bound = true;
        }
    }
    if (eff_timeout > 0) {
        as->timeoutEv =
            ctx_.schedule(eff_timeout, [app, as, deadline_bound]() {
                if (*as->settled)
                    return;
                if (deadline_bound) {
                    app->rpcDeadlineExceeded_->inc();
                    app->settleAttempt(*as,
                                       RpcStatus::DeadlineExceeded);
                } else {
                    app->rpcTimeouts_->inc();
                    app->settleAttempt(*as, RpcStatus::Timeout);
                }
            });
    }

    as->ticket = pool->acquire([app, caller_server, caller_svc, tgt, req,
                                parent_span, req_payload, resp_payload,
                                req_wire, resp_wire, proto, attempt_no,
                                resilient, route, as]() {
        as->poolAcquired = true;
        as->acquireEv.cancel();
        cpu::Server &csrv = app->cluster_.server(caller_server);
        const bool fpga = app->config_.fpga.enabled;
        const Cycles send_tcp =
            fpga ? app->config_.fpga.hostSendCycles
                 : app->config_.tcp.sendCost(req_wire);
        const Cycles send_cycles =
            proto->serializeCost(req_payload) + send_tcp;
        const double send_tcp_frac =
            static_cast<double>(send_tcp) /
            static_cast<double>(std::max<Cycles>(1, send_cycles));
        const double kipc = app->kernelIpc(csrv);
        app->chargeNetwork(caller_svc, static_cast<double>(send_cycles),
                           kipc);

        csrv.execute(send_cycles, kipc, [app, caller_server, tgt, req,
                                         parent_span, resp_payload,
                                         req_payload, req_wire, resp_wire,
                                         proto, attempt_no, resilient,
                                         route, as,
                                         send_tcp_frac](Tick send_busy) {
            if (*as->settled)
                return;
            req->networkTime += send_busy;
            req->tcpProcTime += static_cast<Tick>(
                send_tcp_frac * static_cast<double>(send_busy));
            as->callerNet += send_busy;

            // Partitioned deployment: a target homed on another shard
            // is a different machine reachable only through the engine
            // mailbox — hand the attempt to the cross-shard leg. Every
            // path below this point (instance selection, delivery,
            // reply) then runs on the target's home shard.
            if (app->partitioned_ &&
                tgt->homeShard() != app->ctx_.shard()) {
                app->remoteAttempt(caller_server, as, *tgt, req,
                                   parent_span, req_payload, resp_payload,
                                   req_wire, resp_wire, attempt_no, route);
                return;
            }

            Instance *ti;
            if (route.byKey) {
                // Keyed mode: the call is addressed to the key's
                // serving instance — the ring owner, or with
                // replication the group leader / read-preference pick.
                // Unservable keys fail fast with a typed status
                // (Unreachable, QuorumLost, StaleRead) regardless of
                // policy; the client retry loop treats all three as
                // retryable.
                RpcStatus key_status = RpcStatus::Ok;
                ti = tgt->resolveKeyInstance(route, app->ctx_.now(),
                                             key_status);
                if (!ti) {
                    if (key_status == RpcStatus::QuorumLost &&
                        app->rpcQuorumLost_)
                        app->rpcQuorumLost_->inc();
                    else if (key_status == RpcStatus::StaleRead &&
                             app->rpcStaleRejects_)
                        app->rpcStaleRejects_->inc();
                    app->settleAttempt(*as, key_status);
                    return;
                }
            } else if (resilient) {
                ti = tgt->trySelectInstance(*req);
                if (!ti) {
                    // Outage: nothing active to route to. Fail fast on
                    // the caller instead of aborting the simulation.
                    app->settleAttempt(*as, RpcStatus::Unreachable);
                    return;
                }
            } else {
                ti = &tgt->selectInstance(*req);
            }
            if (app->crashTracking_) {
                as->target = ti;
                as->registered = true;
                app->registerAttempt(*ti, as.get());
            }
            const unsigned callee_server = ti->server().id();
            const bool fpga = app->config_.fpga.enabled;
            const Tick fpga_lat =
                fpga ? app->config_.fpga.pipelineLatency : 0;

            // Reply continuation: runs on the callee once the handler
            // (or the drop/refusal path) finishes. Error replies still
            // traverse the wire — a refusal is a message too.
            auto respond = [app, caller_server, callee_server, tgt, ti,
                            req, resp_payload, resp_wire, proto,
                            fpga_lat, as](std::shared_ptr<HandlerCtx> ctx,
                                          RpcStatus status) {
                const bool f = app->config_.fpga.enabled;
                const Cycles reply_tcp =
                    f ? app->config_.fpga.hostSendCycles
                      : app->config_.tcp.sendCost(resp_wire);
                const Cycles reply_cycles =
                    proto->serializeCost(resp_payload) + reply_tcp;
                const double reply_tcp_frac =
                    static_cast<double>(reply_tcp) /
                    static_cast<double>(
                        std::max<Cycles>(1, reply_cycles));
                const double kipc_t = app->kernelIpc(ti->server());
                app->chargeNetwork(tgt, static_cast<double>(reply_cycles),
                                   kipc_t);
                ti->server().execute(reply_cycles, kipc_t,
                                     [app, caller_server, callee_server,
                                      req, resp_payload, resp_wire, proto,
                                      fpga_lat, ctx, reply_tcp_frac, as,
                                      status](Tick reply_busy) {
                    req->networkTime += reply_busy;
                    req->tcpProcTime += static_cast<Tick>(
                        reply_tcp_frac * static_cast<double>(reply_busy));
                    if (ctx) {
                        ctx->span.networkTime += reply_busy;
                        ctx->span.end = app->ctx_.now();
                        const Tick dur = ctx->span.duration();
                        Microservice &svc = ctx->inst->svc();
                        if (status == RpcStatus::Ok) {
                            svc.mutableLatency().record(dur);
                            svc.latencyWindow().record(app->ctx_.now(),
                                                       dur);
                            ++ctx->inst->served_;
                            if (app->obsTap_)
                                app->obsTap_->onTierLatency(svc, dur);
                        } else {
                            ++ctx->inst->failed_;
                        }
                        if (app->config_.tracing)
                            app->collector_.collect(ctx->span);
                    }
                    app->network_.send(callee_server, caller_server,
                                       resp_wire,
                                       [app, caller_server, req,
                                        resp_payload, resp_wire, proto,
                                        fpga_lat, as,
                                        status](Tick queueing_tx,
                                                Tick prop) {
                        auto finish = [app, caller_server, req,
                                       resp_payload, resp_wire, proto,
                                       queueing_tx, prop, fpga_lat, as,
                                       status]() {
                            if (*as->settled)
                                return; // late reply; caller moved on
                            req->networkTime += queueing_tx + fpga_lat;
                            req->tcpProcTime += fpga_lat;
                            req->wireTime += prop;
                            as->callerNet += queueing_tx + fpga_lat;
                            cpu::Server &csrv2 =
                                app->cluster_.server(caller_server);
                            const bool f2 = app->config_.fpga.enabled;
                            const Cycles recv_tcp =
                                f2 ? app->config_.fpga.hostRecvCycles
                                   : app->config_.tcp.recvCost(resp_wire);
                            const Cycles recv_cycles =
                                proto->deserializeCost(resp_payload) +
                                recv_tcp;
                            const double recv_tcp_frac =
                                static_cast<double>(recv_tcp) /
                                static_cast<double>(
                                    std::max<Cycles>(1, recv_cycles));
                            csrv2.execute(recv_cycles,
                                          app->kernelIpc(csrv2),
                                          [app, req, recv_tcp_frac, as,
                                           status](Tick recv_busy) {
                                if (*as->settled)
                                    return;
                                req->networkTime += recv_busy;
                                req->tcpProcTime += static_cast<Tick>(
                                    recv_tcp_frac *
                                    static_cast<double>(recv_busy));
                                as->callerNet += recv_busy;
                                app->settleAttempt(*as, status);
                            });
                        };
                        if (fpga_lat > 0)
                            app->ctx_.schedule(fpga_lat, finish);
                        else
                            finish();
                    });
                });
            };

            app->network_.send(
                caller_server, callee_server, req_wire,
                [app, tgt, ti, req, parent_span, req_payload, req_wire,
                 fpga_lat, proto, attempt_no, as,
                 respond = std::move(respond)](Tick queueing_tx,
                                               Tick prop) mutable {
                auto deliver = [app, tgt, ti, req, parent_span,
                                req_payload, req_wire, queueing_tx,
                                prop, fpga_lat, proto, attempt_no, as,
                                respond = std::move(respond)]() mutable {
                    if (*as->settled)
                        return; // caller gave up while we were in flight
                    req->networkTime += queueing_tx + fpga_lat;
                    req->tcpProcTime += fpga_lat;
                    req->wireTime += prop;
                    as->callerNet += queueing_tx + fpga_lat;
                    const bool f = app->config_.fpga.enabled;
                    const Cycles rr_tcp =
                        f ? app->config_.fpga.hostRecvCycles
                          : app->config_.tcp.recvCost(req_wire);
                    const Cycles recv_cycles =
                        proto->deserializeCost(req_payload) + rr_tcp;
                    const double rr_tcp_frac =
                        static_cast<double>(rr_tcp) /
                        static_cast<double>(
                            std::max<Cycles>(1, recv_cycles));
                    const double kipc_t = app->kernelIpc(ti->server());
                    app->chargeNetwork(
                        tgt, static_cast<double>(recv_cycles), kipc_t);
                    ti->server().execute(
                        recv_cycles, kipc_t,
                        [app, ti, req, parent_span, rr_tcp_frac,
                         attempt_no, as,
                         respond = std::move(respond)](
                            Tick recv_busy) mutable {
                        req->networkTime += recv_busy;
                        req->tcpProcTime += static_cast<Tick>(
                            rr_tcp_frac * static_cast<double>(recv_busy));
                        app->deliverToInstance(*ti, req, parent_span,
                                               recv_busy, attempt_no,
                                               as->settled,
                                               std::move(respond));
                    });
                };
                if (fpga_lat > 0)
                    app->ctx_.schedule(fpga_lat, std::move(deliver));
                else
                    deliver();
            });
        });
    });

    if (as->ticket != rpc::ConnectionPool::kGrantedImmediately &&
        pol->acquireTimeout > 0 && !*as->settled) {
        // Parked behind a saturated HTTP/1.1 pool: give up after the
        // configured wait instead of parking forever (Fig 17B's hang).
        as->acquireEv = ctx_.schedule(pol->acquireTimeout, [app, as]() {
            if (as->poolAcquired || *as->settled)
                return;
            app->rpcPoolTimeouts_->inc();
            app->settleAttempt(*as, RpcStatus::PoolTimeout);
        });
    }
}

void
App::remoteAttempt(unsigned caller_server, std::shared_ptr<AttemptState> as,
                   Microservice &target, RequestPtr req,
                   trace::SpanId parent_span, Bytes req_payload,
                   Bytes resp_payload, Bytes req_wire, Bytes resp_wire,
                   unsigned attempt_no, const data::RouteHint &route)
{
    App *app = this;
    const unsigned home = target.homeShard();

    // Forward leg: the caller's NIC pays serialization/queueing here;
    // the wire pays the inter-shard latency the engine lookahead is
    // derived from, so the delivery delay below is always >= lookahead.
    const std::pair<Tick, Tick> fwd =
        network_.crossShardDelay(caller_server, req_wire);
    req->networkTime += fwd.first;
    req->wireTime += fwd.second;
    as->callerNet += fwd.first;

    RemoteCall call;
    call.srcShard = ctx_.shard();
    call.tier = target.orderIndex();
    call.requestId = req->id;
    call.queryType = req->queryType;
    call.userId = req->userId;
    call.deadline = req->deadline;
    call.dataKey = route.key;
    call.traceId = req->traceId;
    call.parentSpan = parent_span;
    call.attemptNo = attempt_no;
    call.reqPayload = req_payload;
    call.respPayload = resp_payload;
    call.reqWire = req_wire;
    call.respWire = resp_wire;
    call.routeByKey = route.byKey;
    call.routeIsWrite = route.write;
    call.routeStoreAccess = route.storeAccess;

    const rpc::ProtocolModel *proto = &target.def().protocol;

    // Runs back on this shard when the home shard posts the delta.
    auto reply = [app, caller_server, req, resp_payload, resp_wire, proto,
                  as](const RemoteDelta &d) {
        if (*as->settled)
            return; // late reply; the caller's timeout already won
        req->networkTime += d.networkTime + d.replyQueueing;
        req->tcpProcTime += d.tcpProcTime;
        req->wireTime += d.wireTime;
        req->appTime += d.appTime;
        req->queueTime += d.queueTime;
        req->retries += d.retries;
        if (d.dropped)
            req->dropped = true;
        as->callerNet += d.replyQueueing;
        cpu::Server &csrv = app->cluster_.server(caller_server);
        const Cycles recv_tcp = app->config_.tcp.recvCost(resp_wire);
        const Cycles recv_cycles =
            proto->deserializeCost(resp_payload) + recv_tcp;
        const double recv_tcp_frac =
            static_cast<double>(recv_tcp) /
            static_cast<double>(std::max<Cycles>(1, recv_cycles));
        const std::uint8_t remote_hit = d.remoteHit;
        const RpcStatus status = d.status;
        csrv.execute(recv_cycles, app->kernelIpc(csrv),
                     [app, req, recv_tcp_frac, remote_hit, as,
                      status](Tick recv_busy) {
            if (*as->settled)
                return;
            req->networkTime += recv_busy;
            req->tcpProcTime += static_cast<Tick>(
                recv_tcp_frac * static_cast<double>(recv_busy));
            as->callerNet += recv_busy;
            // Published in the same event that settles the attempt:
            // settleAttempt unwinds synchronously into the issuing
            // stage's continuation, so a concurrent sibling's delta
            // cannot overwrite the outcome before it is read.
            if (remote_hit)
                req->remoteHit = remote_hit;
            app->settleAttempt(*as, status);
        });
    };

    App *peer = peerApps_[home];
    ctx_.postToShard(home, fwd.first + fwd.second,
                     [peer, call, reply = std::move(reply)]() {
        peer->serveRemote(call, reply);
    });
}

void
App::serveRemote(const RemoteCall &call,
                 std::function<void(const RemoteDelta &)> done)
{
    App *app = this;
    if (call.tier >= serviceOrder_.size())
        fatal("serveRemote: tier index out of range");
    Microservice *tgt = serviceOrder_[call.tier];

    // Shard-local twin of the caller's request: identity copied,
    // accounting zeroed — this shard accumulates its own delta and the
    // caller merges it, so nothing is double counted.
    RequestPtr rreq = std::make_shared<CountedRequest>(
        LiveCount(live_, &live_->requests));
    rreq->id = call.requestId;
    rreq->queryType = call.queryType;
    rreq->userId = call.userId;
    rreq->deadline = call.deadline;
    rreq->dataKey = call.dataKey;
    rreq->traceId = call.traceId;

    data::RouteHint route;
    route.key = call.dataKey;
    route.byKey = call.routeByKey;
    route.write = call.routeIsWrite;

    // The keyed store access the issuing stage could not perform
    // locally: done here, on the shard that owns the store, with the
    // outcome shipped back in the delta.
    std::uint8_t remote_hit = 0;
    if (call.routeStoreAccess)
        remote_hit = tgt->keyedAccess(call.dataKey, ctx_.now(),
                                      call.routeIsWrite)
                         ? 2
                         : 1;

    Instance *ti = nullptr;
    RpcStatus key_status = RpcStatus::Ok;
    if (route.byKey)
        ti = tgt->resolveKeyInstance(route, ctx_.now(), key_status);
    else
        ti = &tgt->selectInstance(*rreq);
    if (!ti) {
        // Unservable key (downed ring owner). Partition mode rejects
        // fault schedules so this is defensive, but reply rather than
        // abort: the typed status travels back like any other outcome.
        RemoteDelta d;
        d.remoteHit = remote_hit;
        d.status = key_status;
        ctx_.postToShard(call.srcShard, network_.config().wireLatency,
                         [done = std::move(done), d]() { done(d); });
        return;
    }

    const unsigned callee_server = ti->server().id();
    const rpc::ProtocolModel *proto = &tgt->def().protocol;

    // Reply continuation: the mirror of the local path's `respond`,
    // except the last leg is a marshalled delta through the mailbox
    // instead of a network_.send back to the caller.
    auto respond = [app, tgt, ti, rreq, callee_server, call, proto,
                    remote_hit, done = std::move(done)](
                       std::shared_ptr<HandlerCtx> ctx, RpcStatus status) {
        const Cycles reply_tcp = app->config_.tcp.sendCost(call.respWire);
        const Cycles reply_cycles =
            proto->serializeCost(call.respPayload) + reply_tcp;
        const double reply_tcp_frac =
            static_cast<double>(reply_tcp) /
            static_cast<double>(std::max<Cycles>(1, reply_cycles));
        const double kipc_t = app->kernelIpc(ti->server());
        app->chargeNetwork(tgt, static_cast<double>(reply_cycles), kipc_t);
        ti->server().execute(reply_cycles, kipc_t,
                             [app, ti, rreq, callee_server, call,
                              reply_tcp_frac, remote_hit, ctx, status,
                              done](Tick reply_busy) {
            rreq->networkTime += reply_busy;
            rreq->tcpProcTime += static_cast<Tick>(
                reply_tcp_frac * static_cast<double>(reply_busy));
            if (ctx) {
                ctx->span.networkTime += reply_busy;
                ctx->span.end = app->ctx_.now();
                const Tick dur = ctx->span.duration();
                Microservice &svc = ctx->inst->svc();
                if (status == RpcStatus::Ok) {
                    svc.mutableLatency().record(dur);
                    svc.latencyWindow().record(app->ctx_.now(), dur);
                    ++ctx->inst->served_;
                    if (app->obsTap_)
                        app->obsTap_->onTierLatency(svc, dur);
                } else {
                    ++ctx->inst->failed_;
                }
                if (app->config_.tracing)
                    app->collector_.collect(ctx->span);
            }
            // Reply leg: this shard's NIC pays the tx queueing, the
            // wire pays the inter-shard latency — so the post delay is
            // always >= the engine lookahead.
            const std::pair<Tick, Tick> rep =
                app->network_.crossShardDelay(callee_server,
                                              call.respWire);
            RemoteDelta d;
            d.networkTime = rreq->networkTime;
            d.tcpProcTime = rreq->tcpProcTime;
            d.wireTime = rreq->wireTime + rep.second;
            d.appTime = rreq->appTime;
            d.queueTime = rreq->queueTime;
            d.replyQueueing = rep.first;
            d.retries = rreq->retries;
            d.remoteHit = remote_hit;
            d.dropped = rreq->dropped;
            d.status = status;
            app->ctx_.postToShard(call.srcShard, rep.first + rep.second,
                                  [done, d]() { done(d); });
        });
    };

    // Receive-side kernel work for the marshalled message, charged to
    // the callee exactly as on the local path.
    const Cycles rr_tcp = config_.tcp.recvCost(call.reqWire);
    const Cycles recv_cycles =
        proto->deserializeCost(call.reqPayload) + rr_tcp;
    const double rr_tcp_frac =
        static_cast<double>(rr_tcp) /
        static_cast<double>(std::max<Cycles>(1, recv_cycles));
    const double kipc_t = kernelIpc(ti->server());
    chargeNetwork(tgt, static_cast<double>(recv_cycles), kipc_t);
    ti->server().execute(recv_cycles, kipc_t,
                         [app, ti, rreq, call, rr_tcp_frac,
                          respond = std::move(respond)](
                             Tick recv_busy) mutable {
        rreq->networkTime += recv_busy;
        rreq->tcpProcTime += static_cast<Tick>(
            rr_tcp_frac * static_cast<double>(recv_busy));
        app->deliverToInstance(*ti, rreq, call.parentSpan, recv_busy,
                               call.attemptNo, nullptr,
                               std::move(respond));
    });
}

void
App::deliverToInstance(
    Instance &inst, RequestPtr req, trace::SpanId parent_span,
    Tick pre_network, unsigned attempt_no, std::shared_ptr<bool> abandoned,
    std::function<void(std::shared_ptr<HandlerCtx>, RpcStatus)> respond)
{
    if (abandoned && *abandoned)
        return; // caller settled while the request was on the wire

    // Injected transient errors fail the request at arrival: the
    // server spends reply-path cycles sending the error back, which is
    // what a process returning 5xx costs.
    if (faultHook_ && faultHook_->shouldFailRequest(inst.svc())) {
        ++inst.failed_;
        respond(nullptr, RpcStatus::Error);
        return;
    }

    // Deadline admission: never queue work whose caller chain has
    // already given up (deadline propagation).
    if (req->deadline && ctx_.now() >= req->deadline) {
        rpcDeadlineExceeded_->inc();
        ++inst.failed_;
        respond(nullptr, RpcStatus::DeadlineExceeded);
        return;
    }

    // Admission control (enableQos): the multi-class queue owns all
    // queue bounds, so the legacy shed/overflow checks below never run
    // while it is installed. Every refusal is a typed fast-reject on
    // the reply wire — the caller's breaker and retry budget see an
    // immediate error, not a timeout.
    if (inst.admission_) {
        const QosClass cls = qosClassOf(req->queryType);
        const auto ci = static_cast<std::size_t>(cls);
        switch (inst.admission_->offer(cls, ctx_.now())) {
        case AdmissionVerdict::Admit:
            break;
        case AdmissionVerdict::Throttled:
            admThrottled_[ci]->inc();
            ++inst.failed_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Throttled);
            return;
        case AdmissionVerdict::Shed:
            admShed_[ci]->inc();
            rpcShed_->inc();
            ++inst.failed_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Shed);
            return;
        case AdmissionVerdict::Overflow:
            admOverflow_[ci]->inc();
            ++inst.dropped_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Overflow);
            return;
        }
        admAdmitted_[ci]->inc();
        Instance::Arrival arrival;
        arrival.req = std::move(req);
        arrival.parentSpan = parent_span;
        arrival.enqueued = ctx_.now();
        arrival.preNetworkTime = pre_network;
        arrival.attempt =
            static_cast<std::uint8_t>(std::min(attempt_no, 255u));
        arrival.abandoned = std::move(abandoned);
        arrival.respondCtx = std::move(respond);
        inst.admission_->push(cls, std::move(arrival));
        maybeStartHandling(inst);
        return;
    }

    const rpc::ResiliencePolicy &pol = inst.svc().def().resilience;
    if (pol.shedQueueLength > 0 &&
        inst.queue_.size() >= pol.shedQueueLength) {
        // Load shedding: refuse early with a cheap, retryable error
        // instead of letting the queue grow to the overflow cliff.
        rpcShed_->inc();
        ++inst.failed_;
        respond(nullptr, RpcStatus::Shed);
        return;
    }

    if (inst.queue_.size() >= inst.svc().def().queueCapacity) {
        ++inst.dropped_;
        if (!pol.active()) {
            // Legacy queue overflow: mark the end-to-end request
            // dropped and unwind through the normal reply path.
            req->dropped = true;
            respond(nullptr, RpcStatus::Ok);
        } else {
            // Under a resilience policy, overflow is a retryable
            // per-attempt error rather than a silent request kill.
            respond(nullptr, RpcStatus::Overflow);
        }
        return;
    }
    Instance::Arrival arrival;
    arrival.req = std::move(req);
    arrival.parentSpan = parent_span;
    arrival.enqueued = ctx_.now();
    arrival.preNetworkTime = pre_network;
    arrival.attempt =
        static_cast<std::uint8_t>(std::min(attempt_no, 255u));
    arrival.abandoned = std::move(abandoned);
    arrival.respondCtx = std::move(respond);
    inst.queue_.push_back(std::move(arrival));
    maybeStartHandling(inst);
}

void
App::maybeStartHandling(Instance &inst)
{
    while (inst.freeThreads_ > 0) {
        Instance::Arrival a;
        QosClass cls = QosClass::UserFacing;
        if (inst.admission_) {
            // Weighted round robin across the class queues.
            if (!inst.admission_->pop(cls, a))
                break;
        } else {
            if (inst.queue_.empty())
                break;
            a = std::move(inst.queue_.front());
            inst.queue_.pop_front();
        }
        if (a.abandoned && *a.abandoned) {
            // The caller timed out while this sat in the queue; skip
            // it without burning a worker thread on dead work.
            rpcAbandonedArrivals_->inc();
            continue;
        }
        if (inst.admission_)
            admServed_[static_cast<std::size_t>(cls)]->inc();
        --inst.freeThreads_;

        auto ctx =
            std::make_shared<HandlerCtx>(LiveCount(live_, &live_->contexts));
        ctx->inst = &inst;
        ctx->req = a.req;
        ctx->respond = std::move(a.respondCtx);
        ctx->span.traceId = a.req->traceId;
        ctx->span.spanId = ids_.nextSpan();
        ctx->span.parentSpanId = a.parentSpan;
        ctx->span.service = inst.svc().traceServiceId();
        ctx->span.instance = inst.index();
        ctx->span.queryType = a.req->queryType;
        ctx->span.attempt = a.attempt;
        ctx->span.qosClass = static_cast<std::uint8_t>(cls);
        // Arrival is timestamped before kernel receive processing.
        ctx->span.start = a.enqueued >= a.preNetworkTime
                              ? a.enqueued - a.preNetworkTime
                              : 0;
        ctx->span.queueTime = ctx_.now() - a.enqueued;
        ctx->span.networkTime = a.preNetworkTime;
        ctx->req->queueTime += ctx->span.queueTime;

        const std::uint64_t epoch = inst.crashEpoch_;
        runStage(ctx, 0, [this, ctx, epoch]() {
            Instance &done_inst = *ctx->inst;
            if (done_inst.crashEpoch_ != epoch) {
                // The instance crashed mid-handler: the process is
                // gone, no reply is ever sent. The caller was settled
                // by the crash path.
                return;
            }
            ++done_inst.freeThreads_;
            // The reply path does not hold a worker thread; pull the
            // next queued request in before responding.
            maybeStartHandling(done_inst);
            ctx->respond(ctx, ctx->span.statusEnum());
        });
    }
}

void
App::runStage(std::shared_ptr<HandlerCtx> ctx, std::size_t idx,
              std::function<void()> done)
{
    Microservice &svc = ctx->inst->svc();
    const auto &stages = svc.def().handler.stages;
    // Once a downstream dependency failed for good, abort the handler:
    // the remaining stages would compute on behalf of a request that is
    // already doomed, and the error must surface to the caller now.
    if (ctx->span.status != 0 || idx >= stages.size()) {
        done();
        return;
    }
    const Stage &st = stages[idx];
    auto next = [this, ctx, idx, done = std::move(done)]() mutable {
        runStage(ctx, idx + 1, std::move(done));
    };

    const QueryType &qt = queryTypes_[ctx->req->queryType];
    if (!st.onlyForTag.empty() && !qt.hasTag(st.onlyForTag)) {
        next();
        return;
    }
    if (st.probability < 1.0 && !rng_.bernoulli(st.probability)) {
        next();
        return;
    }

    switch (st.kind) {
      case Stage::Kind::Compute: {
        const auto &prof = svc.def().profile;
        const double cycles =
            std::max(0.0, st.computeCycles.sample(rng_)) * qt.computeScale;
        const double cpu_cycles = cycles * (1.0 - prof.ioBoundFraction);
        const double io_cycles = cycles - cpu_cycles;
        cpu::Server &server = ctx->inst->server();
        const double ipc = serviceIpc(svc, server);
        // I/O waits do not consume the core and do not stretch when
        // frequency drops: convert at the *nominal* frequency.
        const double nominal_ghz = server.model().nominalFreqMhz / 1000.0;
        const Tick io_ns = static_cast<Tick>(
            io_cycles / std::max(1e-9, ipc * nominal_ghz));
        chargeCompute(svc, cpu_cycles, ipc);
        server.execute(static_cast<Cycles>(cpu_cycles), ipc,
                       [this, ctx, io_ns,
                        next = std::move(next)](Tick busy) mutable {
            ctx->inst->cpuBusyTime_ += busy;
            auto fin = [ctx, busy, io_ns,
                        next = std::move(next)]() mutable {
                ctx->span.appTime += busy + io_ns;
                ctx->req->appTime += busy + io_ns;
                next();
            };
            if (io_ns > 0)
                ctx_.schedule(io_ns, std::move(fin));
            else
                fin();
        });
        return;
      }
      case Stage::Kind::Call: {
        if (st.fanout == 0) {
            next();
            return;
        }
        Microservice *target = &service(st.target);
        const unsigned server_id = ctx->inst->server().id();
        const Tick call_start = ctx_.now();
        if (st.parallel) {
            auto remaining = std::make_shared<unsigned>(st.fanout);
            auto net_sum = std::make_shared<Tick>(0);
            auto joined_next =
                std::make_shared<std::function<void()>>(std::move(next));
            for (unsigned i = 0; i < st.fanout; ++i) {
                rpcCall(server_id, ctx->inst, *target, ctx->req,
                        ctx->span.spanId, st.requestBytes, st.responseBytes,
                        st.carriesMedia,
                        [this, ctx, remaining, net_sum, call_start,
                         joined_next](RpcStatus status, Tick wall,
                                      Tick caller_net) {
                    (void)wall;
                    // A parallel fanout fails if any branch fails;
                    // first failure wins the join status.
                    if (status != RpcStatus::Ok && ctx->span.status == 0)
                        ctx->span.status =
                            static_cast<std::uint8_t>(status);
                    *net_sum += caller_net;
                    if (--*remaining == 0) {
                        const Tick wall_total = ctx_.now() - call_start;
                        ctx->span.networkTime += *net_sum;
                        ctx->span.downstreamWait +=
                            wall_total > *net_sum ? wall_total - *net_sum
                                                  : 0;
                        (*joined_next)();
                    }
                });
            }
        } else {
            // The chain refers to itself weakly; each pending call's
            // continuation holds it strongly, so it dies with the last
            // one instead of leaking the context tree through a cycle.
            auto do_call =
                std::make_shared<std::function<void(unsigned)>>();
            auto next_shared =
                std::make_shared<std::function<void()>>(std::move(next));
            const Stage *stage = &st;
            *do_call = [this, ctx, stage, target, server_id,
                        self = std::weak_ptr(do_call),
                        next_shared](unsigned i) {
                if (i >= stage->fanout) {
                    (*next_shared)();
                    return;
                }
                rpcCall(server_id, ctx->inst, *target, ctx->req,
                        ctx->span.spanId, stage->requestBytes,
                        stage->responseBytes, stage->carriesMedia,
                        [ctx, stage, do_call = self.lock(),
                         i](RpcStatus status, Tick wall, Tick caller_net) {
                    ctx->span.networkTime += caller_net;
                    ctx->span.downstreamWait +=
                        wall > caller_net ? wall - caller_net : 0;
                    if (status != RpcStatus::Ok) {
                        if (ctx->span.status == 0)
                            ctx->span.status =
                                static_cast<std::uint8_t>(status);
                        // Skip the remaining sequential calls.
                        (*do_call)(stage->fanout);
                        return;
                    }
                    (*do_call)(i + 1);
                });
            };
            (*do_call)(0);
        }
        return;
      }
      case Stage::Kind::Delay: {
        const Tick d = static_cast<Tick>(
            std::max(0.0, st.delayNs.sample(rng_)));
        const bool is_net = st.delayIsNetwork;
        ctx_.schedule(d, [ctx, d, is_net, next = std::move(next)]() mutable {
            if (is_net) {
                ctx->span.networkTime += d;
                ctx->req->networkTime += d;
            } else {
                ctx->span.appTime += d;
                ctx->req->appTime += d;
            }
            next();
        });
        return;
      }
      case Stage::Kind::Cache: {
        Microservice *cache_tier = &service(st.target);
        const unsigned server_id = ctx->inst->server().id();
        // Keyed mode: draw the accessed key and let hit/miss emerge
        // from the owning shard's bounded store. Legacy mode keeps
        // the fixed-probability coin flip — the same single RNG draw
        // at the same point in the event stream, so configurations
        // without a keyspace stay bit-identical.
        bool hit;
        Tick quorum_delay = 0;
        data::RouteHint route;
        // Partitioned worlds: a keyed store homed on another shard
        // cannot be touched from here — the access rides the RPC to
        // the home shard (route.storeAccess) and the outcome returns
        // in req->remoteHit, counted in the continuation below.
        bool remote_keyed = false;
        if (st.keyed && keyspace_) {
            const std::uint64_t key =
                keyspace_->sampleKey(rng_, ctx_.now());
            ctx->req->dataKey = key;
            const bool is_write = qt.hasTag(data::kWriteTag);
            route = {key, true, is_write};
            remote_keyed =
                partitioned_ && cache_tier->homeShard() != ctx_.shard();
            if (remote_keyed) {
                hit = false;
            } else if (cache_tier->replicated()) {
                if (is_write && replicationConfig_.txnEnabled()) {
                    // Multi-partition transaction: this write touches
                    // txnKeys keys; distinct groups go through 2PC.
                    // Extra key draws happen only on this opt-in path.
                    std::vector<std::uint64_t> keys{key};
                    for (unsigned k = 1; k < replicationConfig_.txnKeys;
                         ++k)
                        keys.push_back(
                            keyspace_->sampleKey(rng_, ctx_.now()));
                    if (ctx->span.dataMisses != 255)
                        ++ctx->span.dataMisses;
                    runTxnStage(ctx, &st, cache_tier, std::move(keys),
                                std::move(next));
                    return;
                }
                const Microservice::ReplicatedAccess acc =
                    cache_tier->replicatedAccess(key, ctx_.now(),
                                                 is_write);
                // A typed reject leaves the store untouched; the RPC
                // below fails with the same status at attempt time and
                // degrades to a miss (db fallthrough keeps serving).
                hit = acc.hit;
                quorum_delay = acc.quorumDelay;
            } else {
                hit = cache_tier->keyedAccess(key, ctx_.now(), is_write);
            }
            if (!remote_keyed) {
                if (hit) {
                    if (ctx->span.dataHits != 255)
                        ++ctx->span.dataHits;
                } else if (ctx->span.dataMisses != 255) {
                    ++ctx->span.dataMisses;
                }
            }
        } else {
            hit = rng_.bernoulli(st.hitRatio);
        }
        const Stage *stage = &st;
        auto next_shared =
            std::make_shared<std::function<void()>>(std::move(next));
        // Only the cache-tier hop carries the store access; the db
        // fallthrough routes by the same key but touches no store.
        data::RouteHint cache_route = route;
        cache_route.storeAccess = remote_keyed;
        rpcCall(server_id, ctx->inst, *cache_tier, ctx->req,
                ctx->span.spanId, st.requestBytes, st.responseBytes,
                st.carriesMedia,
                [this, ctx, stage, server_id, hit, remote_keyed,
                 quorum_delay, route,
                 next_shared](RpcStatus status, Tick wall, Tick caller_net) {
            ctx->span.networkTime += caller_net;
            ctx->span.downstreamWait +=
                wall > caller_net ? wall - caller_net : 0;
            auto cont = [this, ctx, stage, server_id, hit, remote_keyed,
                         route, next_shared, status]() {
                bool h = hit;
                if (remote_keyed) {
                    // The home shard's outcome, published in the same
                    // event that settled the attempt. A failed RPC
                    // counts as a miss: the reply (and the outcome)
                    // never arrived.
                    h = status == RpcStatus::Ok &&
                        ctx->req->remoteHit == 2;
                    if (h) {
                        if (ctx->span.dataHits != 255)
                            ++ctx->span.dataHits;
                    } else if (ctx->span.dataMisses != 255) {
                        ++ctx->span.dataMisses;
                    }
                }
                // A failed cache lookup degrades to a miss: fall
                // through to the backing store when one exists
                // (cache-aside pattern).
                const bool effective_hit =
                    h && status == RpcStatus::Ok;
                if (effective_hit || stage->dbTarget.empty()) {
                    if (status != RpcStatus::Ok &&
                        stage->dbTarget.empty() && ctx->span.status == 0)
                        ctx->span.status =
                            static_cast<std::uint8_t>(status);
                    (*next_shared)();
                    return;
                }
                Microservice *db = &service(stage->dbTarget);
                // The backing store shards by the same key when it is
                // ring-managed, so hot keys hammer one DB shard too.
                const data::RouteHint db_route =
                    db->keyedRouting() ? route : data::RouteHint{};
                rpcCall(server_id, ctx->inst, *db, ctx->req,
                        ctx->span.spanId, stage->requestBytes,
                        stage->responseBytes, stage->carriesMedia,
                        [ctx, next_shared](RpcStatus status2, Tick wall2,
                                           Tick caller_net2) {
                    ctx->span.networkTime += caller_net2;
                    ctx->span.downstreamWait += wall2 > caller_net2
                                                    ? wall2 - caller_net2
                                                    : 0;
                    if (status2 != RpcStatus::Ok &&
                        ctx->span.status == 0)
                        ctx->span.status =
                            static_cast<std::uint8_t>(status2);
                    (*next_shared)();
                },
                        db_route);
            };
            if (quorum_delay > 0 && status == RpcStatus::Ok) {
                // Quorum write: the handler blocks until the W-th ack
                // — the (W-1)-th fastest follower's apply lag.
                ctx->span.downstreamWait += quorum_delay;
                ctx_.schedule(quorum_delay, std::move(cont));
            } else {
                cont();
            }
        },
                cache_route);
        return;
      }
    }
    panic("unhandled stage kind");
}

void
App::runTxnStage(std::shared_ptr<HandlerCtx> ctx, const Stage *stage,
                 Microservice *cache_tier, std::vector<std::uint64_t> keys,
                 std::function<void()> next)
{
    if (rpcTxnStarted_)
        rpcTxnStarted_->inc();
    const unsigned server_id = ctx->inst->server().id();

    // One prepare per distinct replica group, addressed by the first
    // key that mapped there. A transaction whose keys all hash to one
    // group degenerates to single-partition 2PC: one prepare, one
    // commit, no cross-group coordination cost.
    std::vector<std::uint64_t> group_keys;
    std::vector<unsigned> groups;
    for (std::uint64_t k : keys) {
        const unsigned g = cache_tier->shardIndexForKey(k);
        bool seen = false;
        for (unsigned have : groups)
            if (have == g) {
                seen = true;
                break;
            }
        if (!seen) {
            groups.push_back(g);
            group_keys.push_back(k);
        }
    }

    struct TxnState
    {
        unsigned remaining = 0;
        bool failed = false;
        bool settled = false;
    };
    auto st = std::make_shared<TxnState>();
    st->remaining = static_cast<unsigned>(group_keys.size());
    auto next_shared =
        std::make_shared<std::function<void()>>(std::move(next));

    App *app = this;
    Microservice *tier = cache_tier;
    const Stage *stg = stage;
    const std::uint64_t primary = keys.front();

    // The coordinator's decision point: fired once, by the last
    // prepare ack or by the abort timer — whichever comes first.
    auto settle = std::make_shared<std::function<void(bool)>>();
    *settle = [app, ctx, tier, stg, server_id, st, group_keys, primary,
               next_shared](bool ok) {
        if (st->settled)
            return;
        st->settled = true;
        auto abort_txn = [&]() {
            if (app->rpcTxnAborts_)
                app->rpcTxnAborts_->inc();
            tier->noteTxnAbort();
            if (ctx->span.status == 0)
                ctx->span.status =
                    static_cast<std::uint8_t>(RpcStatus::TxnAborted);
            (*next_shared)();
        };
        if (!ok) {
            abort_txn();
            return;
        }
        // Commit phase: apply every group's write. Quorum membership
        // may have shifted since the prepares acked (a leader crash in
        // the window), in which case the transaction still aborts.
        Tick delay = 0;
        bool commit_ok = true;
        for (std::uint64_t k : group_keys) {
            const Microservice::ReplicatedAccess acc =
                tier->replicatedAccess(k, app->ctx_.now(), true);
            if (acc.status != trace::SpanStatus::Ok) {
                commit_ok = false;
                break;
            }
            delay = std::max(delay, acc.quorumDelay);
        }
        if (!commit_ok) {
            abort_txn();
            return;
        }
        if (app->rpcTxnCommits_)
            app->rpcTxnCommits_->inc();
        auto after = [app, ctx, stg, server_id, primary, next_shared]() {
            if (stg->dbTarget.empty()) {
                (*next_shared)();
                return;
            }
            // Write-through: the transaction's primary key carries the
            // backing-store update, same as the single-key miss path.
            Microservice *db = &app->service(stg->dbTarget);
            const data::RouteHint db_route =
                db->keyedRouting()
                    ? data::RouteHint{primary, true, true}
                    : data::RouteHint{};
            app->rpcCall(server_id, ctx->inst, *db, ctx->req,
                         ctx->span.spanId, stg->requestBytes,
                         stg->responseBytes, stg->carriesMedia,
                         [ctx, next_shared](RpcStatus status2, Tick wall2,
                                            Tick caller_net2) {
                ctx->span.networkTime += caller_net2;
                ctx->span.downstreamWait += wall2 > caller_net2
                                                ? wall2 - caller_net2
                                                : 0;
                if (status2 != RpcStatus::Ok && ctx->span.status == 0)
                    ctx->span.status =
                        static_cast<std::uint8_t>(status2);
                (*next_shared)();
            },
                         db_route);
        };
        if (delay > 0) {
            // The coordinator blocks until the slowest group's W-th
            // ack has landed.
            ctx->span.downstreamWait += delay;
            app->ctx_.schedule(delay, std::move(after));
        } else {
            after();
        }
    };

    // Coordinator deadline on the prepare phase: a late ack finds the
    // transaction already settled (the guard makes the timer a no-op
    // once a decision is taken).
    ctx_.schedule(replicationConfig_.txnPrepareTimeout,
                  [settle]() { (*settle)(false); });

    for (std::size_t i = 0; i < group_keys.size(); ++i) {
        const data::RouteHint prep_route{group_keys[i], true, true};
        rpcCall(server_id, ctx->inst, *cache_tier, ctx->req,
                ctx->span.spanId, stg->requestBytes, stg->responseBytes,
                stg->carriesMedia,
                [ctx, st, settle](RpcStatus status, Tick wall,
                                  Tick caller_net) {
            ctx->span.networkTime += caller_net;
            ctx->span.downstreamWait +=
                wall > caller_net ? wall - caller_net : 0;
            if (status != RpcStatus::Ok)
                st->failed = true;
            if (--st->remaining == 0)
                (*settle)(!st->failed);
        },
                prep_route);
    }
}

void
App::inject(unsigned query_type, std::uint64_t user_id, CompletionFn done)
{
    if (!clientServer_)
        fatal("App::inject without a client server");
    if (queryTypes_.empty())
        addQueryType(QueryType{});
    if (query_type >= queryTypes_.size())
        fatal(strCat("unknown query type ", query_type));

    RequestPtr req = std::make_shared<CountedRequest>(
        LiveCount(live_, &live_->requests));
    req->id = nextRequestId_++;
    req->queryType = query_type;
    req->userId = user_id;
    req->injectTime = ctx_.now();
    if (config_.requestDeadline > 0)
        req->deadline = ctx_.now() + config_.requestDeadline;
    req->traceId = config_.tracing ? ids_.nextTrace() : 0;
    injected_->inc();

    const trace::SpanId client_span_id = ids_.nextSpan();

    rpcCall(clientServer_->id(), nullptr, service(entry_), req,
            client_span_id, config_.clientRequestBytes,
            config_.clientResponseBytes, /*carries_media=*/true,
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
            e2eLatency_.record(lat);
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

const Histogram &
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
    e2eLatency_.reset();
    for (auto &h : e2eByQuery_)
        h->reset();
    metrics_.resetAll();
    totalNetworkTime_ = 0.0;
    totalAppTime_ = 0.0;
    traceStore_.clear();
    for (Microservice *svc : serviceOrder_) {
        svc->mutableLatency().reset();
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
