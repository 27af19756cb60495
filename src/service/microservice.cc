#include "service/microservice.hh"

#include <functional>

#include "core/logging.hh"
#include "service/app.hh"

namespace uqsim::service {

std::string
serviceKindName(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::Frontend:
        return "frontend";
      case ServiceKind::Stateless:
        return "stateless";
      case ServiceKind::Cache:
        return "cache";
      case ServiceKind::Database:
        return "database";
    }
    return "unknown";
}

Instance::Instance(Microservice &svc, unsigned idx, cpu::Server &server)
    : svc_(svc), idx_(idx), server_(server),
      freeThreads_(svc.def().threadsPerInstance),
      queue_(svc.def().queueCapacity)
{}

double
Instance::occupancy() const
{
    const unsigned total = svc_.def().threadsPerInstance;
    if (total == 0)
        return 0.0;
    return static_cast<double>(total - freeThreads_) /
           static_cast<double>(total);
}

std::size_t
Instance::inFlight() const
{
    return (svc_.def().threadsPerInstance - freeThreads_) +
           queueLength();
}

Microservice::Microservice(App &app, ServiceDef def)
    : app_(app), def_(std::move(def))
{
    if (def_.name.empty())
        fatal("Microservice with empty name");
    if (def_.threadsPerInstance == 0)
        fatal(strCat("service '", def_.name, "' with zero threads"));
    traceServiceId_ = app.traceStore().intern(def_.name);
}

Instance &
Microservice::addInstance(cpu::Server &server)
{
    if (replicas_)
        // Group membership is fixed at enableReplication: growing the
        // ring would silently reshuffle every group's successor set.
        fatal(strCat("addInstance on replicated tier '", def_.name,
                     "'"));
    instances_.push_back(std::make_unique<Instance>(
        *this, static_cast<unsigned>(instances_.size()), server));
    if (app_.qosEnabled())
        // Scale-outs after enableQos get their own class queues, with
        // a full token bucket clocked from now.
        instances_.back()->queue_.install(app_.qosPolicy(),
                                          app_.ctx().now());
    if (shardMap_)
        // Consistent hashing: the new shard takes over ~1/n of the
        // ring; the moved keys find it cold and warm it up.
        shardMap_->rebuild(static_cast<unsigned>(instances_.size()));
    if (!cacheModels_.empty()) {
        cacheModels_.push_back(
            std::make_unique<data::CacheModel>(cacheConfig_));
        cacheModels_.back()->bindMetrics(app_.metrics(), def_.name);
        // A scale-out replica starts empty: account it as a cold
        // restart so warm-up transients are visible in data.* metrics.
        cacheModels_.back()->clearCold();
    }
    return *instances_.back();
}

void
Microservice::enableKeyedRouting(unsigned vnodes)
{
    if (instances_.empty())
        fatal(strCat("enableKeyedRouting on '", def_.name,
                     "' before any instance"));
    shardMap_ = std::make_unique<data::ShardMap>(vnodes);
    shardMap_->rebuild(static_cast<unsigned>(instances_.size()));
}

unsigned
Microservice::shardIndexForKey(std::uint64_t key) const
{
    if (!shardMap_)
        fatal(strCat("shardIndexForKey on '", def_.name,
                     "' without keyed routing"));
    return shardMap_->shardFor(key);
}

Instance *
Microservice::tryInstanceForKey(std::uint64_t key)
{
    if (misrouted_)
        return instances_.front().get();
    Instance &inst = *instances_[shardIndexForKey(key)];
    if (!inst.active())
        return nullptr;
    return &inst;
}

void
Microservice::attachCacheModels(const data::CacheModelConfig &config)
{
    if (!cacheModels_.empty())
        fatal(strCat("cache models already attached to '", def_.name,
                     "'"));
    if (instances_.empty())
        fatal(strCat("attachCacheModels on '", def_.name,
                     "' before any instance"));
    cacheConfig_ = config;
    cacheModels_.reserve(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        cacheModels_.push_back(
            std::make_unique<data::CacheModel>(config));
        cacheModels_.back()->bindMetrics(app_.metrics(), def_.name);
    }
    unreachableMisses_ =
        &app_.metrics().counter("data." + def_.name + ".misses");
}

data::CacheModel *
Microservice::cacheModel(unsigned idx)
{
    if (idx >= cacheModels_.size())
        return nullptr;
    return cacheModels_[idx].get();
}

bool
Microservice::keyedAccess(std::uint64_t key, Tick now, bool is_write)
{
    const unsigned idx = shardIndexForKey(key);
    if (!instances_[idx]->active()) {
        // The owning shard is down: its state is gone and must not be
        // re-warmed by lookups, but the access still counts against
        // the tier's hit ratio — this is the in-outage dip.
        if (!is_write && unreachableMisses_)
            unreachableMisses_->inc();
        return false;
    }
    data::CacheModel *model = cacheModel(idx);
    if (!model)
        return false;
    if (is_write) {
        model->write(key, now);
        return false;
    }
    return model->access(key, now);
}

data::CacheStats
Microservice::dataStats() const
{
    data::CacheStats total;
    for (const auto &model : cacheModels_) {
        const data::CacheStats &s = model->stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.inserts += s.inserts;
        total.evictions += s.evictions;
        total.expirations += s.expirations;
        total.invalidations += s.invalidations;
        total.writes += s.writes;
        total.coldRestarts += s.coldRestarts;
        total.replayDrops += s.replayDrops;
    }
    return total;
}

void
Microservice::enableReplication(const replica::ReplicationConfig &config)
{
    if (replicas_)
        fatal(strCat("replication already enabled on '", def_.name,
                     "'"));
    if (!shardMap_)
        fatal(strCat("enableReplication on '", def_.name,
                     "' without keyed routing"));
    if (cacheModels_.empty())
        fatal(strCat("enableReplication on '", def_.name,
                     "' without cache models"));
    replicas_ = std::make_unique<replica::ReplicaSet>(
        config, static_cast<unsigned>(instances_.size()));
    // Counters are created here, not up-front, so unreplicated runs
    // emit exactly the legacy metric set (same discipline as QoS).
    MetricsRegistry &m = app_.metrics();
    const std::string &t = def_.name;
    replStaleReads_ = &m.counter("replica." + t + ".stale_reads");
    replStaleRejects_ = &m.counter("replica." + t + ".stale_rejects");
    replQuorumLost_ = &m.counter("replica." + t + ".quorum_lost");
    replRywRedirects_ = &m.counter("replica." + t + ".ryw_redirects");
    replElections_ = &m.counter("replica." + t + ".elections");
    replFailovers_ = &m.counter("replica." + t + ".failovers");
    replTrims_ = &m.counter("replica." + t + ".log_trims");
    replStoreLosses_ = &m.counter("replica." + t + ".store_losses");
    replTxnAborts_ = &m.counter("replica." + t + ".txn_aborts");
}

void
Microservice::applyReplicaMaintenance(unsigned group, Tick now)
{
    const replica::Maintenance m = replicas_->poll(group, now);
    data::CacheModel *model = cacheModel(group);
    if (!model)
        return;
    if (m.clearStore)
        // Every member died: the logical store is lost for real.
        model->clearCold();
    else if (m.trim)
        // Failover: the promoted follower replays its log into the
        // warm group store, minus the un-replicated tail.
        model->dropWrittenAfter(m.trimCutoff);
}

void
Microservice::syncReplicaMetrics()
{
    const replica::ReplicaCounts &c = replicas_->counts();
    auto delta = [](Counter *ctr, std::uint64_t cur,
                    std::uint64_t &last) {
        if (cur > last) {
            if (ctr)
                ctr->inc(cur - last);
            last = cur;
        }
    };
    delta(replStaleReads_, c.staleReads, mirrored_.staleReads);
    delta(replStaleRejects_, c.staleRejects, mirrored_.staleRejects);
    delta(replQuorumLost_, c.quorumLostWrites,
          mirrored_.quorumLostWrites);
    delta(replQuorumLost_, c.quorumLostReads,
          mirrored_.quorumLostReads);
    delta(replRywRedirects_, c.rywRedirects, mirrored_.rywRedirects);
    delta(replElections_, c.electionsStarted,
          mirrored_.electionsStarted);
    delta(replFailovers_, c.failovers, mirrored_.failovers);
    delta(replTrims_, c.trims, mirrored_.trims);
    delta(replStoreLosses_, c.storeLosses, mirrored_.storeLosses);
}

Microservice::ReplicatedAccess
Microservice::replicatedAccess(std::uint64_t key, Tick now,
                               bool is_write)
{
    ReplicatedAccess acc;
    const unsigned group = shardIndexForKey(key);
    applyReplicaMaintenance(group, now);
    const replica::RouteDecision d =
        replicas_->route(group, key, is_write, now);
    syncReplicaMetrics();
    switch (d.verdict) {
      case replica::Verdict::Ok:
        break;
      case replica::Verdict::QuorumLost:
        acc.status = trace::SpanStatus::QuorumLost;
        return acc;
      case replica::Verdict::StaleRead:
        acc.status = trace::SpanStatus::StaleRead;
        return acc;
      case replica::Verdict::Unreachable:
        // Dead group: data unreachable, same accounting as a downed
        // unreplicated shard.
        if (!is_write && unreachableMisses_)
            unreachableMisses_->inc();
        acc.status = trace::SpanStatus::Unreachable;
        return acc;
    }
    data::CacheModel *model = cacheModel(group);
    if (is_write) {
        if (model)
            model->write(key, now);
        replicas_->recordWrite(group, now);
        acc.quorumDelay = d.quorumDelay;
        return acc;
    }
    acc.hit = model && model->access(key, now);
    return acc;
}

Instance *
Microservice::resolveKeyInstance(const data::RouteHint &route, Tick now,
                                 trace::SpanStatus &status)
{
    status = trace::SpanStatus::Ok;
    if (!replicas_) {
        Instance *inst = tryInstanceForKey(route.key);
        if (!inst)
            status = trace::SpanStatus::Unreachable;
        return inst;
    }
    if (misrouted_)
        return instances_.front().get();
    const unsigned group = shardIndexForKey(route.key);
    applyReplicaMaintenance(group, now);
    // Second resolution of this access (the stage already counted it):
    // count = false keeps the event counts per-access.
    const replica::RouteDecision d = replicas_->route(
        group, route.key, route.write, now, /*count=*/false);
    switch (d.verdict) {
      case replica::Verdict::Ok:
        break;
      case replica::Verdict::QuorumLost:
        status = trace::SpanStatus::QuorumLost;
        return nullptr;
      case replica::Verdict::StaleRead:
        status = trace::SpanStatus::StaleRead;
        return nullptr;
      case replica::Verdict::Unreachable:
        status = trace::SpanStatus::Unreachable;
        return nullptr;
    }
    Instance &inst = *instances_[d.instance];
    if (!inst.active()) {
        // The member went down between the decision inputs changing
        // and this attempt; fail like any crashed target.
        status = trace::SpanStatus::Unreachable;
        return nullptr;
    }
    return &inst;
}

void
Microservice::noteTxnAbort()
{
    if (replTxnAborts_)
        replTxnAborts_->inc();
}

unsigned
Microservice::activeInstances() const
{
    unsigned n = 0;
    for (const auto &inst : instances_)
        if (inst->active())
            ++n;
    return n;
}

Instance &
Microservice::selectInstance(const Request &req)
{
    if (activeInstances() == 0)
        panic(strCat("service '", def_.name, "' has no active instances"));
    Instance *inst = trySelectInstance(req);
    if (!inst)
        panic(strCat("sharded service '", def_.name,
                     "' routed to inactive shard"));
    return *inst;
}

Instance *
Microservice::trySelectInstance(const Request &req)
{
    if (activeInstances() == 0)
        return nullptr;

    if (misrouted_)
        return instances_.front().get();

    if (def_.kind == ServiceKind::Cache ||
        def_.kind == ServiceKind::Database) {
        // Shard by user key over *all* instances (shards do not move
        // when instances warm up; stateful tiers are provisioned
        // up-front). An inactive shard means its data is unreachable.
        const std::size_t shard =
            std::hash<std::uint64_t>{}(req.userId * 0x9e3779b97f4a7c15ull) %
            instances_.size();
        Instance &inst = *instances_[shard];
        if (!inst.active())
            return nullptr;
        return &inst;
    }

    if (def_.lbPolicy == LbPolicy::JoinShortestQueue) {
        // Route to the active instance with the least pending work
        // (queue + busy threads). Breaks ties by index, so the scan is
        // deterministic.
        Instance *best = nullptr;
        std::size_t best_load = 0;
        for (auto &inst : instances_) {
            if (!inst->active())
                continue;
            const std::size_t load =
                inst->queueLength() +
                (def_.threadsPerInstance - inst->freeThreads());
            if (!best || load < best_load) {
                best = inst.get();
                best_load = load;
            }
        }
        return best;
    }

    // Stateless: round-robin over active instances.
    for (std::size_t tries = 0; tries < instances_.size(); ++tries) {
        Instance &inst = *instances_[rrCursor_ % instances_.size()];
        ++rrCursor_;
        if (inst.active())
            return &inst;
    }
    return nullptr;
}

void
Microservice::setThreadsPerInstance(unsigned threads)
{
    if (threads == 0)
        fatal(strCat("service '", def_.name, "' with zero threads"));
    for (auto &inst : instances_) {
        if (inst->freeThreads_ != def_.threadsPerInstance)
            panic(strCat("setThreadsPerInstance on busy instance of '",
                         def_.name, "'"));
        inst->freeThreads_ = threads;
    }
    def_.threadsPerInstance = threads;
}

double
Microservice::meanOccupancy() const
{
    double total = 0.0;
    unsigned n = 0;
    for (const auto &inst : instances_) {
        if (!inst->active())
            continue;
        total += inst->occupancy();
        ++n;
    }
    return n ? total / n : 0.0;
}

double
Microservice::meanInFlight() const
{
    double total = 0.0;
    unsigned n = 0;
    for (const auto &inst : instances_) {
        if (!inst->active())
            continue;
        total += static_cast<double>(inst->inFlight());
        ++n;
    }
    return n ? total / n : 0.0;
}

double
Microservice::meanQueueLength() const
{
    double total = 0.0;
    unsigned n = 0;
    for (const auto &inst : instances_) {
        if (!inst->active())
            continue;
        total += static_cast<double>(inst->queueLength());
        ++n;
    }
    return n ? total / n : 0.0;
}

std::uint64_t
Microservice::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &inst : instances_)
        total += inst->dropped();
    return total;
}

double
Microservice::meanLatency() const
{
    std::uint64_t served = 0;
    for (const auto &inst : instances_)
        served += inst->served();
    return served ? latencySum_ / static_cast<double>(served) : 0.0;
}

void
Microservice::chargeKernel(double cycles, double instructions)
{
    kernelCycles_ += cycles;
    kernelInstr_ += instructions;
}

void
Microservice::chargeUser(double cycles, double instructions)
{
    userCycles_ += cycles;
    userInstr_ += instructions;
}

void
Microservice::chargeLib(double cycles, double instructions)
{
    libCycles_ += cycles;
    libInstr_ += instructions;
}

} // namespace uqsim::service
