/**
 * @file
 * Scenario configuration + sharded deployments.
 *
 * A Scenario is the complete declarative description of one uqsim_run
 * invocation: which app, how much hardware, the load window, the
 * client-side resilience policy, the fault schedule, the shard layout
 * and the placement. It round-trips through JSON (`--config` /
 * `--dump-config`), so a run is fully described by one file plus the
 * binary version.
 *
 * WorldHandle is the parallel deployment built from a Scenario — one
 * World per ParallelSimulator shard — in one of two modes:
 *
 * - Deployment::Replicate: N independent replica worlds with
 *   shard-derived seeds, each serving 1/N of the load. No cross-shard
 *   channels exist, so the engine runs with unbounded lookahead. This
 *   scales offered throughput, not one application.
 *
 * - Deployment::Partition: every shard builds the identical world
 *   from the *same* seed, each tier is pinned to one home shard by the
 *   placement layer (data/placement.hh), and calls to a tier homed
 *   elsewhere cross as engine mail. The conservative lookahead is
 *   the inter-shard wire latency — the minimum delay any cross-shard
 *   message experiences in the network model — which is what lets
 *   shards advance in parallel without ever reordering a delivery.
 *   This scales one application graph.
 *
 * In both modes a one-shard deployment is bit-identical to a
 * standalone World (same seed, same construction order), which is what
 * keeps `--shards 1` digests equal to the classic single-queue path.
 */

#ifndef UQSIM_APPS_SCENARIO_HH
#define UQSIM_APPS_SCENARIO_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "apps/builder.hh"
#include "core/parallel.hh"
#include "data/config.hh"
#include "data/placement.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "obs/pipeline.hh"
#include "replica/replication.hh"
#include "trace/collector.hh"
#include "workload/generators.hh"
#include "workload/load_sweep.hh"
#include "workload/user_population.hh"

namespace uqsim::json {
struct Value;
class Writer;
} // namespace uqsim::json

namespace uqsim::apps {

/**
 * Everything that defines one run. Field-for-field the uqsim_run
 * option surface; scenarioFields() describes every member.
 */
struct Scenario
{
    std::string app = "social-network";

    // -- load window ------------------------------------------------
    double qps = 300.0;
    double durationSec = 10.0;
    double warmupSec = 2.0;

    // -- platform ---------------------------------------------------
    unsigned servers = 5;
    unsigned drones = 24;
    std::string core = "xeon";
    double freqMhz = 0.0;
    bool fpga = false;
    std::string lambda; ///< "", "s3", "mem"
    unsigned slowServers = 0;
    double slowFactor = 40.0;

    // -- workload ---------------------------------------------------
    double skew = -1.0; ///< <0: uniform users
    std::uint64_t users = 1000;
    std::uint64_t seed = 42;

    // -- shard layout -----------------------------------------------
    unsigned shards = 1;
    unsigned threads = 1;

    // -- placement across shards ------------------------------------
    /**
     * Deployment mode: "none" — the legacy default, N replica worlds
     * exactly as before this surface existed — "replicate" (the same
     * thing, spelled explicitly), or "partition" (one world split
     * across shards, tiers pinned to home shards per `pins`).
     */
    std::string placement = "none";
    std::vector<data::PlacementPin> pins; ///< partition mode only

    // -- client-side resilience ------------------------------------
    Tick rpcTimeout = 0;
    Tick deadline = 0;
    unsigned retries = 0;
    double retryBudget = 0.0;
    bool breaker = false;
    unsigned shed = 0;

    // -- server-side admission control / QoS classes ----------------
    bool qosEnabled = false;
    unsigned qosWeightUser = 8;  ///< WRR credits, user-facing
    unsigned qosWeightBatch = 2; ///< WRR credits, batch
    unsigned qosWeightBest = 1;  ///< WRR credits, best-effort
    unsigned qosQueue = 0;    ///< per-class bound (0 = tier capacity)
    double qosRate = 0.0;     ///< admitted req/s per instance (0 = off)
    double qosBurst = 32.0;   ///< token-bucket burst
    double qosShedBatch = 0.5;  ///< batch shed threshold (fraction)
    double qosShedBest = 0.25;  ///< best-effort shed threshold
    std::string qosBatch;       ///< comma-separated query-type names
    std::string qosBestEffort;  ///< comma-separated query-type names

    // -- keyed data tier (0 keys = legacy fixed-hitProb caches) -----
    std::uint64_t dataKeys = 0;
    std::uint64_t dataCapacity = 4096; ///< entries per cache instance
    std::string dataPolicy = "lru";        ///< lru | lfu | slru
    std::string dataPopularity = "zipf";   ///< zipf | uniform | hotspot
    double dataZipfS = 1.0;
    double dataHotFraction = 0.1;
    double dataHotMass = 0.9;
    Tick dataTtl = 0;
    std::string dataWrite = "through";     ///< through | invalidate
    Tick dataShiftPeriod = 0;
    unsigned dataVnodes = 64;

    // -- replicated keyed-data tier (factor < 2 = unreplicated) -----
    unsigned replicaFactor = 0;    ///< replicas per group (>= 2 enables)
    unsigned replicaQuorum = 0;    ///< write quorum W (0 = majority)
    Tick replicaApplyLag = 1 * kTicksPerMs;    ///< lag per ring hop
    Tick replicaElectionTimeout = 50 * kTicksPerMs;
    Tick replicaCatchUp = 100 * kTicksPerMs;   ///< restart log replay
    std::string replicaRead = "leader"; ///< leader | nearest | ryw
    unsigned txnKeys = 0;          ///< >= 2: 2PC on write-tagged stages
    Tick txnPrepareTimeout = 10 * kTicksPerMs;

    // -- observability / SLO monitoring (opt-in) --------------------
    bool obsEnabled = false;
    Tick obsInterval = 100 * kTicksPerMs; ///< sampling boundary period
    std::uint64_t obsRing = 4096;         ///< ring bound per series
    Tick sloLatency = 0;       ///< latency bound at sloQuantile (0 = off)
    double sloQuantile = 0.99; ///< in (0, 1)
    unsigned sloWindow = 3;    ///< consecutive bad intervals to trip
    double sloErrorRate = 0.0; ///< error-rate bound (0 = off)
    std::string sloTier;       ///< series under the SLO ("" = e2e)

    // -- generated topology (opt-in; "" = the hand-written `app`) ---
    /**
     * Name of a gen::GenProfile. When non-empty, buildScenarioApp()
     * samples a topology from (profile, genSeed) instead of building
     * `app` — everything else (data/qos/slo/replication/placement)
     * layers on the generated world unchanged.
     */
    std::string genProfile;
    std::uint64_t genSeed = 1;
    unsigned genDepth = 0;  ///< pin logic levels (0 = profile draw)
    unsigned genWidth = 0;  ///< pin tiers per level (0 = profile draw)
    double genFanout = 0.0; ///< override mean fan-out (0 = profile)

    // -- arrival process (poisson = legacy byte-identical path) -----
    std::string arrival = "poisson"; ///< poisson|mmpp|diurnal|flash
    double arrivalBurst = 4.0;       ///< mmpp peak/base rate ratio
    double arrivalDuty = 0.1;        ///< mmpp peak-state time fraction
    Tick arrivalDwell = 200 * kTicksPerMs; ///< mmpp mean peak sojourn
    Tick arrivalPeriod = 10 * kTicksPerSec; ///< diurnal "day" length
    double arrivalLow = 0.2;         ///< diurnal night fraction
    Tick arrivalFlashAt = 2 * kTicksPerSec;
    Tick arrivalFlashRamp = 200 * kTicksPerMs;
    double arrivalFlashMult = 8.0;
    Tick arrivalFlashHold = 1 * kTicksPerSec;

    // -- faults & tracing -------------------------------------------
    std::vector<fault::FaultSpec> faults;
    std::size_t traceCapacity = trace::TraceStore::kDefaultCapacity;
};

/**
 * One scenario knob: its JSON key, its command-line flag, the Scenario
 * member it sets and the check its value must pass. The table of these
 * (scenarioFields()) is the only place a knob is spelled out; --help,
 * flag parsing, JSON parsing, scenarioToJson() and per-field
 * validation are all generated from it. Adding a knob is one row in
 * scenario.cc plus one line in its *ConfigFor lowering.
 */
struct ScenarioField
{
    /** A Tick member, written "50ms" on the command line. */
    struct Duration
    {
        Tick Scenario::*member;
    };

    /** A knob of irregular shape: its readers and writer by hand. */
    struct Custom
    {
        bool (*fromJson)(const json::Value &v, Scenario &s,
                         std::string &error);
        void (*toJson)(json::Writer &w, const std::string &name,
                       const Scenario &s);
        bool (*fromFlag)(const std::string &value, Scenario &s,
                         std::string &error);
    };

    /**
     * The member a row reads and writes; the alternative is the value
     * kind: number, switch, text (an enum when `names` is set),
     * count (any unsigned width), duration or custom.
     */
    using Slot = std::variant<double Scenario::*, bool Scenario::*,
                              std::string Scenario::*, unsigned Scenario::*,
                              unsigned long Scenario::*,
                              unsigned long long Scenario::*, Duration,
                              Custom>;

    /** Accepted values of a numeric knob; NaN is never in range. */
    struct Range
    {
        double lo = -std::numeric_limits<double>::infinity();
        double hi = std::numeric_limits<double>::infinity();
        bool loOpen = false;
        bool hiOpen = false;

        bool
        contains(double v) const
        {
            return (loOpen ? v > lo : v >= lo) &&
                   (hiOpen ? v < hi : v <= hi);
        }
    };

    const char *key;  ///< "qps", or "block.name"; nullptr: flag only
    const char *flag; ///< "--qps"; nullptr: JSON only
    const char *arg;  ///< value placeholder in --help ("" = no value)
    Slot slot;
    const char *help;
    Range range = {};
    /** Enum knobs: the allowed values, '|'-separated ("" may be one). */
    const char *names = nullptr;

    bool takesValue() const { return arg[0] != '\0'; }
};

/** Every scenario knob, in scenarioToJson() key order. */
std::span<const ScenarioField> scenarioFields();

/** The row whose flag is @p flag, or nullptr. */
const ScenarioField *findScenarioFlag(const std::string &flag);

/**
 * Apply flag @p f with @p value ("" for a switch) to @p s. Any --qos-*
 * flag also sets qosEnabled; any --slo-* or --timeseries-* flag sets
 * obsEnabled. @return false and set @p error on a malformed value.
 * Ranges and cross-field rules are checked later by validateScenario.
 */
bool applyScenarioFlag(const ScenarioField &f, const std::string &value,
                       Scenario &s, std::string &error);

/** The generated --help lines for every scenario flag. */
std::string scenarioFlagHelp();

/** One --help entry: "  --flag ARG", then @p text wrapped to 79 columns. */
std::string helpEntry(const std::string &flag, const std::string &text);

/**
 * Check every field's range or enum, then the cross-field rules
 * (replication needs keys, txn needs replication, the partition
 * feature matrix, pins, generate overrides). Errors name both the
 * JSON key and the flag. @return false and set @p error if invalid.
 */
bool validateScenario(const Scenario &s, std::string &error);

/** The DataTierConfig a scenario's data fields describe. */
data::DataTierConfig dataTierConfigFor(const Scenario &s);

/**
 * The ReplicationConfig a scenario's replica/txn fields describe.
 * Valid only when replicaFactor >= 2 (and replicaRead names a real
 * read preference — buildScenarioApp dies otherwise).
 */
replica::ReplicationConfig replicationConfigFor(const Scenario &s);

/** The QosConfig a scenario's qos fields describe. */
service::QosConfig qosConfigFor(const Scenario &s);

/**
 * The ArrivalConfig a scenario's arrival fields describe. Dies on an
 * unknown process name (parse/CLI validation rejects those earlier).
 */
workload::ArrivalConfig arrivalConfigFor(const Scenario &s);

/** The obs::PipelineConfig a scenario's obs/slo fields describe. */
obs::PipelineConfig obsConfigFor(const Scenario &s);

/**
 * Attach and start an observability pipeline over @p w's app when the
 * scenario enables one (obsEnabled, or any armed SLO objective).
 * @return the pipeline, or nullptr when observability is off. The
 * pipeline must outlive all driving of the world — declare it after
 * the World/WorldHandle so it is destroyed first.
 */
std::unique_ptr<obs::Pipeline> attachObservability(World &w,
                                                   const Scenario &s);

/**
 * Parse a scenario JSON document. Unknown keys are errors (typos must
 * not silently change a run). Durations accept "50ms"-style strings or
 * bare numbers (milliseconds); fields left out keep their defaults in
 * @p out as passed in, so CLI flags before --config act as defaults.
 * The result must pass validateScenario().
 * @return false and set @p error on malformed or invalid input.
 */
bool parseScenarioJson(const std::string &text, Scenario &out,
                       std::string &error);

/**
 * Render @p s as a scenario JSON document (deterministic key order,
 * durations in "ns" units). parseScenarioJson(scenarioToJson(s))
 * reproduces @p s exactly.
 */
std::string scenarioToJson(const Scenario &s);

/** Resolve a --core name; @return false if unknown. */
bool coreModelByName(const std::string &name, cpu::CoreModel &out);

/** The WorldConfig a scenario's hardware fields describe. */
WorldConfig worldConfigFor(const Scenario &s);

/**
 * Build the scenario's app into @p w (any of the --app names:
 * end-to-end services, single-tier baselines, the monolith). Dies on
 * an unknown name.
 */
void buildScenarioApp(World &w, const Scenario &s);

/** How a WorldHandle spreads one Scenario over engine shards. */
enum class Deployment
{
    /**
     * N independent replica worlds with shard-derived seeds, each
     * serving 1/N of the load. No cross-shard channels, so the engine
     * runs with unbounded lookahead. Scales offered throughput.
     */
    Replicate,

    /**
     * One application graph split across shards: every shard builds
     * the identical world from the *same* seed and each tier runs
     * only on its home shard (App::enablePartition). Cross-shard RPCs
     * travel through SimContext::postToShard with conservative
     * lookahead = the inter-shard wire latency. Scales one app.
     */
    Partition,
};

/**
 * A sharded deployment: one World per shard of a ParallelSimulator,
 * in either Deployment mode. Replicate seeds shard i's World with
 * shardSeed(seed, i); Partition reuses the base seed on every shard —
 * the shards are one world, not N experiments — and bounds the engine
 * lookahead by the net model's wire latency (unbounded at one shard,
 * where no cross-shard message can exist). In both modes a one-shard
 * handle reproduces the standalone World bit-for-bit.
 */
class WorldHandle
{
  public:
    WorldHandle(const WorldConfig &base, unsigned shards,
                unsigned threads,
                Deployment deployment = Deployment::Replicate);

    WorldHandle(const WorldHandle &) = delete;
    WorldHandle &operator=(const WorldHandle &) = delete;

    ParallelSimulator &engine() { return engine_; }
    const ParallelSimulator &engine() const { return engine_; }

    unsigned shards() const { return engine_.shardCount(); }

    Deployment deployment() const { return deployment_; }

    World &shard(unsigned i) { return *worlds_[i]; }
    const World &shard(unsigned i) const { return *worlds_[i]; }

    /**
     * Partition-mode wiring, called once after every shard's app has
     * been built: compute the tier -> home-shard map from @p pins
     * (data::assignPlacement over shard 0's service order, strict
     * validation) and arm every shard's App with it plus the peer
     * vector. Fatal outside Partition mode, on invalid pins, or when
     * the shards' graphs disagree.
     */
    void enablePartition(const std::vector<data::PlacementPin> &pins);

    /** The deterministic per-shard seed derivation (i=0 -> seed). */
    static std::uint64_t shardSeed(std::uint64_t seed, unsigned shard);

  private:
    Deployment deployment_;
    ParallelSimulator engine_;
    std::vector<std::unique_ptr<World>> worlds_;
};

/** The load window runWorld() drives a WorldHandle through. */
struct LoadSpec
{
    double qps = 300.0;
    Tick warmup = 0;
    Tick measure = 0;
    workload::UserPopulation users = workload::UserPopulation::uniform(1000);
    std::uint64_t seed = 42;

    /**
     * Arrival process driving each generator. The Poisson default
     * attaches nothing and runs the legacy byte-identical sampler;
     * any other kind gets its own RNG stream (derived from `seed`,
     * disjoint from the query-mix/user draws), so switching processes
     * never perturbs anything but the arrival instants.
     */
    workload::ArrivalConfig arrival;
};

/**
 * The unified load driver for both deployment modes.
 *
 * Replicate: every shard gets its own open-loop generator at
 * qps/shards (workload seed shardSeed(seed, i)); the measured window
 * is aggregated across shards (latency sketches merged, counts summed,
 * utilization averaged). With one shard this issues the exact call
 * sequence of workload::runLoad(), so digests and printed numbers
 * match the classic path bit-for-bit.
 *
 * Partition: one generator drives shard 0's app — the world's single
 * entry point — at the full qps with the plain seed; handler work
 * lands on whichever shard each tier calls home. End-to-end results
 * come from shard 0's app (the only one injecting); utilization is
 * averaged across shards.
 */
workload::LoadResult runWorld(WorldHandle &w, const LoadSpec &spec);

/** The load window @p s describes (workload seed = seed + 1). */
LoadSpec loadSpecFor(const Scenario &s);

/**
 * A scenario's world, ready for runWorld(). Members are declared so
 * the pipelines die first, while the apps they tap are alive.
 */
struct ScenarioWorld
{
    std::unique_ptr<WorldHandle> handle;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::vector<std::unique_ptr<obs::Pipeline>> pipelines;
};

/**
 * Build @p s's world the one way every driver does: the WorldHandle,
 * each shard's app, the lambda/frequency/slow-server and resilience
 * knobs, the armed fault schedule, observability and, in partition
 * mode, placement. Dies on a configuration only the built world can
 * reject (an unknown app, tier or query type).
 */
ScenarioWorld deployScenario(const Scenario &s);

/** What one whole-scenario run produced (the sweep-harness surface). */
struct ScenarioRunResult
{
    workload::LoadResult load;
    std::uint64_t digest = 0; ///< engine execution digest
    std::uint64_t events = 0; ///< events executed
    std::uint64_t failed = 0; ///< failed requests across shards
};

/**
 * Run @p s end to end: deployScenario(), then runWorld() over
 * loadSpecFor(). This is the headless driver uqsim_sweep maps over a
 * corpus; uqsim_run deploys the same way, so their digests agree.
 */
ScenarioRunResult runScenario(const Scenario &s);

} // namespace uqsim::apps

#endif // UQSIM_APPS_SCENARIO_HH
