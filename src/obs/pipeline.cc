#include "obs/pipeline.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim::obs {

Pipeline::Pipeline(service::App &app, PipelineConfig config)
    : app_(app), config_(config),
      store_(config.interval, config.ring), slo_(config.slo)
{
}

Pipeline::~Pipeline()
{
    if (app_.obsTap() == this)
        app_.setObsTap(nullptr);
}

void
Pipeline::start()
{
    if (started_)
        return;
    started_ = true;
    if (!config_.slo.tier.empty() &&
        !app_.hasService(config_.slo.tier))
        fatal(strCat("slo tier '", config_.slo.tier,
                     "' is not a service of app '",
                     app_.config().name, "'"));
    app_.setObsTap(this);
    // Materialize every series up front so exports list all tiers
    // even before the first boundary, and resolve the per-tier
    // reference-stable handles (series, cache counters, SLO target)
    // once, so the per-boundary sampler never builds a string.
    const std::string target = slo_.targetSeries();
    for (const service::Microservice *svc : app_.services()) {
        TierLive &live = liveFor(*svc);
        live.series = &store_.series(svc->name());
        live.sloTarget = config_.slo.armed() && svc->name() == target;
        if (svc->hasCacheModels()) {
            live.hits = &app_.metrics().counter("data." + svc->name() +
                                                ".hits");
            live.misses = &app_.metrics().counter("data." + svc->name() +
                                                  ".misses");
        }
        if (svc->replicated()) {
            const std::string p = "replica." + svc->name() + ".";
            live.staleReads = &app_.metrics().counter(p + "stale_reads");
            live.quorumLost = &app_.metrics().counter(p + "quorum_lost");
            live.txnAborts = &app_.metrics().counter(p + "txn_aborts");
            live.replicatedTier = svc;
        }
    }
    e2eSeries_ = &store_.series(kEndToEndSeries);
    e2eTarget_ = config_.slo.armed() && target == kEndToEndSeries;
    app_.ctx().addClockObserver(
        config_.interval, [this](Tick boundary) { sampleAt(boundary); });
}

Pipeline::TierLive &
Pipeline::liveFor(const service::Microservice &svc)
{
    const std::size_t id = svc.traceServiceId();
    if (id >= tiers_.size())
        tiers_.resize(id + 1);
    return tiers_[id];
}

void
Pipeline::onTierLatency(const service::Microservice &svc, Tick latency)
{
    liveFor(svc).sketch.record(latency);
}

void
Pipeline::onEndToEnd(Tick latency, bool ok)
{
    if (ok) {
        e2eSketch_.record(latency);
        ++e2eOk_;
    } else {
        ++e2eFailed_;
    }
}

void
Pipeline::onAdmissionReject(const service::Microservice &svc)
{
    ++liveFor(svc).rejects;
}

void
Pipeline::sampleAt(Tick boundary)
{
    const Tick interval = config_.interval;
    const Tick start = boundary - interval;
    const double interval_sec =
        static_cast<double>(interval) / static_cast<double>(kTicksPerSec);

    // Tiers, in deterministic insertion order.
    for (service::Microservice *svc : app_.services()) {
        TierLive &live = liveFor(*svc);
        IntervalSample s;
        s.start = start;
        s.end = boundary;

        // Cumulative-counter deltas: a counter that
        // shrank was reset (statReset after warmup), in which case the
        // current value *is* the delta since the reset.
        std::uint64_t served = 0, failed = 0;
        unsigned active = 0;
        Tick busy = 0;
        for (const auto &inst : svc->instances()) {
            served += inst->served();
            failed += inst->failed();
            busy += inst->cpuBusyTime();
            if (!inst->active())
                continue;
            ++active;
        }
        const std::uint64_t served_d =
            served >= live.lastServed ? served - live.lastServed : served;
        const std::uint64_t failed_d =
            failed >= live.lastFailed ? failed - live.lastFailed : failed;
        const Tick busy_d =
            busy >= live.lastBusy ? busy - live.lastBusy : busy;
        live.lastServed = served;
        live.lastFailed = failed;
        live.lastBusy = busy;

        s.count = served_d;
        s.errors = failed_d;
        s.admissionRejects = live.rejects;
        live.rejects = 0;
        const std::uint64_t finished = served_d + failed_d;
        s.rps = static_cast<double>(finished) / interval_sec;
        s.errorRate = finished ? static_cast<double>(failed_d) /
                                     static_cast<double>(finished)
                               : 0.0;
        s.queueDepth = svc->meanQueueLength();
        s.inFlight = svc->meanInFlight();
        const double capacity =
            static_cast<double>(interval) *
            static_cast<double>(svc->def().threadsPerInstance) *
            static_cast<double>(std::max(1u, active));
        s.utilization =
            std::min(1.0, static_cast<double>(busy_d) / capacity);

        if (live.hits) {
            const std::uint64_t hits = live.hits->value();
            const std::uint64_t misses = live.misses->value();
            const std::uint64_t h =
                hits >= live.lastHits ? hits - live.lastHits : hits;
            const std::uint64_t m = misses >= live.lastMisses
                                        ? misses - live.lastMisses
                                        : misses;
            live.lastHits = hits;
            live.lastMisses = misses;
            s.cacheLookups = h + m;
            s.hitRatio = s.cacheLookups
                             ? static_cast<double>(h) /
                                   static_cast<double>(s.cacheLookups)
                             : 0.0;
        }

        if (live.replicatedTier) {
            auto delta = [](const Counter *c, std::uint64_t &last) {
                const std::uint64_t cur = c->value();
                const std::uint64_t d = cur >= last ? cur - last : cur;
                last = cur;
                return d;
            };
            s.staleReads = delta(live.staleReads, live.lastStaleReads);
            s.quorumLost = delta(live.quorumLost, live.lastQuorumLost);
            s.txnAborts = delta(live.txnAborts, live.lastTxnAborts);
            s.replicaLagNs = static_cast<double>(
                live.replicatedTier->replicaSet()->maxStalenessBound(
                    boundary));
        }

        s.meanLatencyNs = live.sketch.mean();
        const double qs[4] = {0.50, 0.95, 0.99, config_.slo.quantile};
        std::uint64_t vals[4];
        live.sketch.quantiles(qs, 4, vals);
        s.p50 = vals[0];
        s.p95 = vals[1];
        s.p99 = vals[2];
        const double lat_q = static_cast<double>(vals[3]);
        live.sketch.reset();

        live.series->append(s);
        if (live.sloTarget)
            slo_.observe(boundary, lat_q, s);
    }

    // End-to-end stream.
    {
        IntervalSample s;
        s.start = start;
        s.end = boundary;
        s.count = e2eOk_;
        s.errors = e2eFailed_;
        const std::uint64_t finished = e2eOk_ + e2eFailed_;
        s.rps = static_cast<double>(finished) / interval_sec;
        s.errorRate = finished ? static_cast<double>(e2eFailed_) /
                                     static_cast<double>(finished)
                               : 0.0;
        s.meanLatencyNs = e2eSketch_.mean();
        const double qs[4] = {0.50, 0.95, 0.99, config_.slo.quantile};
        std::uint64_t vals[4];
        e2eSketch_.quantiles(qs, 4, vals);
        s.p50 = vals[0];
        s.p95 = vals[1];
        s.p99 = vals[2];
        const double lat_q = static_cast<double>(vals[3]);
        e2eSketch_.reset();
        e2eOk_ = 0;
        e2eFailed_ = 0;

        e2eSeries_->append(s);
        if (e2eTarget_)
            slo_.observe(boundary, lat_q, s);
    }

    store_.noteIntervalSampled();
}

} // namespace uqsim::obs
