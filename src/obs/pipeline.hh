/**
 * @file
 * The online telemetry pipeline: App -> TimeSeriesStore -> SloMonitor.
 *
 * One Pipeline watches one App (in a sharded world: one per shard,
 * each sampling its own replica). It is both the App's ObsTap —
 * feeding per-tier and end-to-end latency sketches and per-tier
 * admission-reject counts as requests finish — and a clock observer on
 * the app's shard: at every interval boundary it closes the interval,
 * derives the delta signals (RPS, error rate, utilization, hit ratio)
 * from cumulative instance counters, snapshots the
 * sketches into an IntervalSample per tier plus one for the
 * end-to-end stream, and feeds the SLO monitor.
 *
 * Everything runs *between* events (see
 * ParallelSimulator::addClockObserver): the pipeline never schedules,
 * never mutates model state, and therefore leaves
 * the execution digest bit-identical whether it is attached or not —
 * a stronger guarantee than the usual "disabled == inert" opt-in
 * contract. Sampling is a pure function of shard-local state at each
 * boundary, so series contents are seed-deterministic and invariant
 * under the thread count at a fixed shard layout.
 *
 * Lifetime: the pipeline must outlive all driving of the world (the
 * clock observer cannot be unregistered) and clears the App's tap on
 * destruction.
 */

#ifndef UQSIM_OBS_PIPELINE_HH
#define UQSIM_OBS_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/quantile_sketch.hh"
#include "core/types.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "service/app.hh"

namespace uqsim::obs {

/** Pipeline-wide configuration (the scenario `slo:` block). */
struct PipelineConfig
{
    /** Sampling interval (sim time). */
    Tick interval = 100 * kTicksPerMs;

    /** Ring bound per series (samples). */
    std::size_t ring = 4096;

    /** Objectives (unarmed by default: pure telemetry). */
    SloConfig slo;
};

/**
 * Online sampler over one App (see file comment).
 */
class Pipeline : public service::ObsTap
{
  public:
    Pipeline(service::App &app, PipelineConfig config);
    ~Pipeline() override;

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /**
     * Install the tap and register the clock observer. Call once,
     * after the app graph is built, before driving the world.
     */
    void start();

    const PipelineConfig &config() const { return config_; }
    TimeSeriesStore &store() { return store_; }
    const TimeSeriesStore &store() const { return store_; }
    SloMonitor &slo() { return slo_; }
    const SloMonitor &slo() const { return slo_; }
    service::App &app() { return app_; }

    // -- ObsTap ---------------------------------------------------------

    void onTierLatency(const service::Microservice &svc,
                       Tick latency) override;
    void onEndToEnd(Tick latency, bool ok) override;
    void onAdmissionReject(const service::Microservice &svc) override;

  private:
    /** Per-tier accumulation between boundaries. */
    struct TierLive
    {
        QuantileSketch sketch;
        std::uint64_t rejects = 0;
        // Previous cumulative values, for interval deltas. The
        // "delta falls back to the current value" idiom below absorbs
        // the statReset() after warmup.
        std::uint64_t lastServed = 0;
        std::uint64_t lastFailed = 0;
        Tick lastBusy = 0;
        std::uint64_t lastHits = 0;
        std::uint64_t lastMisses = 0;
        std::uint64_t lastStaleReads = 0;
        std::uint64_t lastQuorumLost = 0;
        std::uint64_t lastTxnAborts = 0;
        // Resolved once at start(): both the registry counters and
        // the series are reference-stable, so boundary sampling never
        // touches a string.
        const Counter *hits = nullptr;
        const Counter *misses = nullptr;
        // Replication signals (null on unreplicated tiers). The tier
        // pointer reads the staleness bound — a pure function of
        // replica-group state — at each boundary.
        const Counter *staleReads = nullptr;
        const Counter *quorumLost = nullptr;
        const Counter *txnAborts = nullptr;
        const service::Microservice *replicatedTier = nullptr;
        Series *series = nullptr;
        /** Whether this tier is the SLO monitor's target series. */
        bool sloTarget = false;
    };

    /** Close the interval ending at @p boundary. */
    void sampleAt(Tick boundary);

    TierLive &liveFor(const service::Microservice &svc);

    service::App &app_;
    PipelineConfig config_;
    TimeSeriesStore store_;
    SloMonitor slo_;
    bool started_ = false;

    /** Indexed by the tier's interned traceServiceId (dense per app). */
    std::vector<TierLive> tiers_;
    /** End-to-end accumulation between boundaries. */
    QuantileSketch e2eSketch_;
    std::uint64_t e2eOk_ = 0;
    std::uint64_t e2eFailed_ = 0;
    Series *e2eSeries_ = nullptr;
    bool e2eTarget_ = false;
};

} // namespace uqsim::obs

#endif // UQSIM_OBS_PIPELINE_HH
