/**
 * @file
 * uqbench: one repetition of one workload of the host-cost benchmark.
 *
 *   uqbench --workload NAME [--seed N] [--traced] [--short]
 *           [--ablate trace|obs] [--shards S] [--threads T]
 *           [--scenarios DIR] [--spans FILE]
 *
 * The driver builds and drives each world only through uqsim's public
 * surface: WorldHandle, buildScenarioApp, App::enable*,
 * attachObservability, WorldHandle::enablePartition, runWorld and the
 * engine's clock observers. It prints one JSON object of raw
 * measurements on stdout; run.py repeats the process, checks the
 * digests against pins.json and derives the metrics.
 *
 * Every world is set up kSetupReps times (all but the last torn down
 * at once) so set-up time is a median; only the last is driven.
 * --short cuts every warm-up to at most 0.5 s and every measured window
 * to at most 1 s of simulated time, for run.py --self-check.
 *
 * Every drive phase also runs the host-speed probe (HostProbe): a fixed
 * chunk of reference work every kProbeEveryNs of host time, between
 * shard 0's events. run_s excludes the chunks; run.py divides run_s by
 * how slow the probe ran against its reference cost, which takes out
 * most of a shared host's slow phases.
 *
 * --traced adds the per-layer instruments, all outside the simulator:
 * spans around every public call (written to --spans at exit), a
 * 10 ms-of-simulated-time clock observer per shard that records host
 * wall and thread-CPU time, a heap sampler, and byte counts in the heap
 * hook (untraced runs count allocation calls only). Clock observers fire
 * between events, never as events, so digests are unchanged.
 * --ablate measures one of two ablations against the untraced base
 * inside this process: the span collector disabled (trace), or the obs
 * pipeline not attached (obs). The two worlds run on two threads pinned
 * to one CPU and take turns, so both see the same host conditions (see
 * ablatePair). --shards and --threads override a partitioned workload's
 * layout.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenario.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "heap_hook.hh"

using namespace uqsim;
namespace heap = uqbench::heap;

namespace {

using Clock = std::chrono::steady_clock;

/** Simulated time between two per-layer slice samples. */
constexpr Tick kSliceInterval = 10 * kTicksPerMs;

/** Simulated time granted after the drain for in-flight requests. */
constexpr Tick kSettle = 10 * kTicksPerSec;

/**
 * World set-ups per world; setup_s is their median. The first few fault
 * in fresh heap pages and take up to twice as long as the later ones;
 * with 21 the median lies past them, where 9 put it on that slope.
 */
constexpr unsigned kSetupReps = 21;

/**
 * Host time between two host-speed probe chunks, and the simulated time
 * between two checks of it on shard 0. A host-time cadence keeps the
 * probe's cache state independent of how fast the simulator runs.
 */
constexpr std::int64_t kProbeEveryNs = 1000000;
constexpr Tick kProbePoll = 1 * kTicksPerMs;

/** Simulated time an ablation-pair world runs before handing over. */
constexpr Tick kBatonSlice = 50 * kTicksPerMs;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    bool traced = false;
    bool shortRun = false;
    bool appTracing = true; ///< false only in an ablated twin
    bool obs = true;        ///< false only in an ablated twin
    std::string ablate;   ///< "trace" or "obs": run an ablation pair
    unsigned shards = 0;  ///< 0 = the workload's own layout
    unsigned threads = 0; ///< 0 = the workload's own layout
    std::string scenarios = "scenarios";
    std::string spansOut;
};

/** One world of a workload. */
struct Spec
{
    std::string label;
    apps::Scenario scn;
    Tick wireLatency = 0; ///< 0 = the network model's default
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "uqbench: " << msg << "\n";
    std::exit(2);
}

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// -- Driver spans ---------------------------------------------------------

/** One timed public call, kept in memory until exit. */
struct Span
{
    const char *name = "";
    unsigned world = 0;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on)
    {
        if (on_)
            spans_.reserve(8192);
    }

    /** Open a span; @return its id (-1 while tracing is off). */
    int
    open(const char *name, unsigned world, int parent = -1)
    {
        if (!on_)
            return -1;
        spans_.push_back(Span{name, world, parent, nowNs(), 0});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"parent\": " << s.parent
                << ", \"name\": \"" << s.name << "\", \"world\": "
                << s.world << ", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        if (!out)
            usageError("cannot write spans to " + path);
    }

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** Closes a span at scope exit. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, unsigned world, int parent = -1)
        : t_(t), id_(t.open(name, world, parent))
    {}
    ~SpanScope() { t_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

// -- Host-speed probe ------------------------------------------------------

/**
 * Fixed reference work that runs in turns with the drive phase, on the
 * drive's own thread, so it meets the same host slowdowns. On a shared
 * VM the drive phase's speed changes by up to 1.7x in phases of seconds
 * to minutes, with the host's memory system and neighbours. A churn of
 * small blocks through size-class free lists over an 18 MB ring, as an
 * allocator does, followed it with a correlation of 0.95-0.98 across
 * repetitions (an ALU loop 0.87, a 64 MB pointer chase 0.76).
 *
 * The blocks come from a private pool, never from malloc, so the probe
 * shares no allocator state with the simulator, and its work depends on
 * nothing the simulator does. poll() runs one chunk when kProbeEveryNs
 * of host time has passed since the last one ended; one chunk takes
 * 11-26 us, so the probe pauses the drive by 1-2%.
 */
class HostProbe
{
  public:
    HostProbe()
        : pool_(new char[kPoolBytes]), slot_(kSlots, nullptr), cls_(kSlots, 0)
    {
        churn(4 * kSlots); // fill the ring: steady state before any call
    }

    void
    poll()
    {
        const std::int64_t t0 = nowNs();
        if (t0 - lastNs_ < kProbeEveryNs)
            return;
        churn(kOpsPerCall);
        lastNs_ = nowNs();
        workNs_ += lastNs_ - t0;
        ++calls_;
    }

    /** Chunks run so far and the host time they took. */
    std::uint64_t calls() const { return calls_; }
    std::int64_t workNs() const { return workNs_; }

  private:
    static constexpr std::size_t kSlots = 65536;
    static constexpr unsigned kOpsPerCall = 256;
    static constexpr unsigned kClasses = 32; ///< 16-byte steps to 512 B
    /** Touched only as used: kSlots live blocks of <= 512 B need 32 MB. */
    static constexpr std::size_t kPoolBytes = std::size_t{48} << 20;

    /** Free a random slot's block and refill it with a random class. */
    void
    churn(unsigned ops)
    {
        for (unsigned i = 0; i < ops; ++i) {
            rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t k = (rng_ >> 20) % kSlots;
            if (char *old = slot_[k]) {
                std::memcpy(old, &head_[cls_[k]], sizeof(char *));
                head_[cls_[k]] = old;
            }
            const auto c = static_cast<unsigned char>((rng_ >> 40) % kClasses);
            const std::size_t n = 16 * (c + 1u);
            char *b = head_[c];
            if (b != nullptr) {
                std::memcpy(&head_[c], b, sizeof(char *));
            } else {
                if (used_ + n > kPoolBytes)
                    std::abort(); // cannot happen, see kPoolBytes
                b = pool_.get() + used_;
                used_ += n;
            }
            slot_[k] = b;
            cls_[k] = c;
            static_cast<volatile char *>(b)[n - 1] = 1;
        }
    }

    std::unique_ptr<char[]> pool_;
    std::size_t used_ = 0;
    char *head_[kClasses] = {};
    std::vector<char *> slot_;
    std::vector<unsigned char> cls_;
    std::uint64_t rng_ = 1;
    std::int64_t lastNs_ = 0;
    std::int64_t workNs_ = 0;
    std::uint64_t calls_ = 0;
};

// -- Workloads ------------------------------------------------------------

void
checkDrivable(const apps::Scenario &s, const std::string &label)
{
    const bool extra = !s.lambda.empty() || s.freqMhz > 0.0 ||
                       s.slowServers > 0 || s.rpcTimeout || s.retries ||
                       s.breaker || s.shed || s.deadline ||
                       !s.faults.empty();
    if (extra)
        usageError(label + ": scenario uses knobs this driver does not "
                           "apply (lambda, frequency, slow servers, "
                           "resilience, deadline or faults)");
}

std::vector<Spec>
corpusSpecs(const Options &opt)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(opt.scenarios, ec))
        if (e.path().extension() == ".json")
            files.push_back(e.path());
    if (ec || files.empty())
        usageError("no scenario files under '" + opt.scenarios + "'");
    std::sort(files.begin(), files.end());

    std::vector<Spec> specs;
    for (const fs::path &f : files) {
        std::ifstream in(f);
        std::stringstream text;
        text << in.rdbuf();
        Spec sp;
        sp.label = f.stem().string();
        std::string error;
        if (!apps::parseScenarioJson(text.str(), sp.scn, error))
            usageError(f.string() + ": " + error);
        checkDrivable(sp.scn, sp.label);
        // The workload seed replaces the files' world/load seed; the
        // sampled topologies (genSeed) stay those of the corpus.
        sp.scn.seed = opt.seed;
        specs.push_back(std::move(sp));
    }
    return specs;
}

std::vector<Spec>
namedSpecs(const Options &opt)
{
    Spec sp;
    sp.label = opt.workload;
    apps::Scenario &s = sp.scn;
    s.app = "social-network";
    s.seed = opt.seed;
    if (opt.workload == "social-steady") {
        s.qps = 3000.0;
        s.warmupSec = 2.0;
        s.durationSec = 20.0;
    } else if (opt.workload == "social-keyed-rw") {
        s.qps = 3000.0;
        s.warmupSec = 2.0;
        s.durationSec = 20.0;
        s.dataKeys = 100000;
        s.dataPopularity = "zipf";
        s.dataZipfS = 1.0;
        s.dataPolicy = "slru";
        s.dataWrite = "invalidate";
        s.replicaFactor = 3;
        s.replicaRead = "ryw";
        s.qosEnabled = true;
        s.qosBatch = "composePost-image,composePost-video";
        s.qosBestEffort = "repost";
        s.obsEnabled = true;
        s.obsInterval = 50 * kTicksPerMs;
        s.sloLatency = 50 * kTicksPerMs;
    } else if (opt.workload == "partition-4") {
        // The 500 us wire is the engine lookahead. It also holds each
        // blocking HTTP connection for a round trip, so the pools
        // saturate near 5000 qps; 4000 qps keeps every request
        // completing inside the drain window.
        s.qps = 4000.0;
        s.warmupSec = 0.5;
        s.durationSec = 8.0;
        // One worker thread drives the 4 shards in measured runs: on a
        // shared VM with hypervisor steal, 4 barrier-bound threads ran
        // 1.8-3.5x slower than one and spread 57% from run to run. The
        // traced run adds the 4-thread layout for the parallel metrics.
        s.placement = "partition";
        s.shards = 4;
        s.threads = 1;
        sp.wireLatency = 500 * kTicksPerUs;
    } else if (opt.workload == "corpus-sweep") {
        return corpusSpecs(opt);
    } else {
        usageError("unknown workload '" + opt.workload + "'");
    }
    if (opt.shards > 0 || opt.threads > 0) {
        if (s.placement != "partition")
            usageError("--shards/--threads apply to partitioned "
                       "workloads only");
        if (opt.shards > 0)
            s.shards = opt.shards;
        if (opt.threads > 0)
            s.threads = opt.threads;
    }
    return {sp};
}

std::vector<Spec>
workloadSpecs(const Options &opt)
{
    std::vector<Spec> specs = namedSpecs(opt);
    if (opt.shortRun)
        for (Spec &sp : specs) {
            sp.scn.warmupSec = std::min(sp.scn.warmupSec, 0.5);
            sp.scn.durationSec = std::min(sp.scn.durationSec, 1.0);
        }
    return specs;
}

// -- One world ------------------------------------------------------------

/** A built world; pipelines are declared last so they die first. */
struct Deployed
{
    std::unique_ptr<apps::WorldHandle> handle;
    std::vector<std::unique_ptr<obs::Pipeline>> pipes;
};

struct SetupTimes
{
    double world = 0.0;
    double build = 0.0;
    double enable = 0.0;

    double total() const { return world + build + enable; }
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Deployed
deploy(const Spec &sp, const Options &opt, Tracer &tr, unsigned world,
       SetupTimes &times)
{
    const apps::Scenario &s = sp.scn;
    apps::WorldConfig config = apps::worldConfigFor(s);
    if (sp.wireLatency > 0)
        config.netConfig.wireLatency = sp.wireLatency;
    if (!opt.appTracing)
        config.appConfig.tracing = false;
    const bool partition = s.placement == "partition";

    // buildScenarioApp applies the keyed/replica/QoS layers itself; the
    // driver calls those enable* entry points in the same order below
    // so each layer's cost lands in its own span.
    apps::Scenario graph = s;
    graph.dataKeys = 0;
    graph.replicaFactor = 0;
    graph.qosEnabled = false;

    SpanScope setup(tr, "setup", world);
    Deployed d;
    auto t = Clock::now();
    {
        SpanScope span(tr, "world", world, setup.id());
        d.handle = std::make_unique<apps::WorldHandle>(
            config, s.shards, s.threads,
            partition ? apps::Deployment::Partition
                      : apps::Deployment::Replicate);
    }
    times.world = secondsSince(t);
    t = Clock::now();
    {
        SpanScope span(tr, "build", world, setup.id());
        for (unsigned i = 0; i < d.handle->shards(); ++i)
            apps::buildScenarioApp(d.handle->shard(i), graph);
    }
    times.build = secondsSince(t);
    t = Clock::now();
    {
        SpanScope span(tr, "enable", world, setup.id());
        for (unsigned i = 0; i < d.handle->shards(); ++i) {
            apps::World &w = d.handle->shard(i);
            if (s.dataKeys > 0)
                w.app->enableKeyedData(apps::dataTierConfigFor(s));
            if (s.replicaFactor >= 2)
                w.app->enableReplication(apps::replicationConfigFor(s));
            if (s.qosEnabled)
                w.app->enableQos(apps::qosConfigFor(s));
            if (opt.obs)
                if (auto p = apps::attachObservability(w, s))
                    d.pipes.push_back(std::move(p));
        }
        if (partition)
            d.handle->enablePartition(s.pins);
    }
    times.enable = secondsSince(t);
    return d;
}

double
teardown(Deployed &d, Tracer &tr, unsigned world)
{
    SpanScope span(tr, "teardown", world);
    const auto t = Clock::now();
    d.pipes.clear();
    d.handle.reset();
    return secondsSince(t);
}

/** Request accounting and layer counters of one shard, pre-reset. */
struct ShardSnap
{
    bool taken = false;
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
};

/** Host-time samples one shard's slice observer records. */
struct SliceLog
{
    std::vector<std::int64_t> wallNs;
    std::vector<std::int64_t> cpuNs;
    std::vector<pthread_t> thread;
};

/** Layer work counts, summed over shards and worlds. */
struct Layers
{
    std::uint64_t rpcRetries = 0;
    std::uint64_t poolBlocked = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t cpuTasks = 0;
    std::uint64_t spansStored = 0;
    std::uint64_t traceEvicted = 0;
    std::uint64_t obsIntervals = 0;
    std::uint64_t dataHits = 0;
    std::uint64_t dataMisses = 0;
    std::uint64_t dataInvalidations = 0;
    std::uint64_t dataWrites = 0;
    std::uint64_t replicaWrites = 0;
    std::uint64_t replicaRyw = 0;
    std::uint64_t admAdmitted = 0;
    std::uint64_t admRejected = 0;
    std::uint64_t tiers = 0;
    std::uint64_t instances = 0;
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Fold one app's registry counters into @p l. Cache writes count as
 * replica writes when the app replicates its keyed tiers.
 */
void
addRegistryCounters(const service::App &app, Layers &l)
{
    json::Value doc;
    std::string error;
    if (!json::parse(app.metrics().snapshotJson(), doc, error))
        panic("metrics snapshot is not JSON: " + error);
    const json::Value *counters = doc.find("counters");
    if (counters == nullptr)
        return;
    for (const auto &[name, v] : counters->object) {
        const auto n = static_cast<std::uint64_t>(v.number);
        if (name == "rpc.retries")
            l.rpcRetries += n;
        else if (name == "rpc.pool.blocked_acquires")
            l.poolBlocked += n;
        else if (name == "trace.spans_stored")
            l.spansStored += n;
        else if (startsWith(name, "data.")) {
            if (endsWith(name, ".hits"))
                l.dataHits += n;
            else if (endsWith(name, ".misses"))
                l.dataMisses += n;
            else if (endsWith(name, ".invalidations"))
                l.dataInvalidations += n;
            else if (endsWith(name, ".writes")) {
                l.dataWrites += n;
                if (app.replicationEnabled())
                    l.replicaWrites += n;
            }
        } else if (startsWith(name, "replica.") &&
                   endsWith(name, ".ryw_redirects")) {
            l.replicaRyw += n;
        } else if (startsWith(name, "admission.admitted.")) {
            l.admAdmitted += n;
        } else if (startsWith(name, "admission.shed.") ||
                   startsWith(name, "admission.throttled.") ||
                   startsWith(name, "admission.overflow.")) {
            l.admRejected += n;
        }
    }
}

/** What one driven world contributes to the repetition's result. */
struct WorldResult
{
    std::string label;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t injectedMeasured = 0;
    std::uint64_t injectedTotal = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
    std::uint64_t incomplete = 0;
    double p99Ms = 0.0;
    std::vector<std::uint64_t> shardEvents;
    double busyShare = 0.0;
};

struct Totals
{
    HostProbe *probe = nullptr; ///< null only in ablation pairs
    double runS = 0.0;     ///< drive phase, probe chunks excluded
    double probeS = 0.0;   ///< probe work during the drive phases
    std::uint64_t probeCalls = 0;
    double setupS = 0.0;
    SetupTimes setupParts;
    double teardownS = 0.0;
    std::uint64_t driveAllocs = 0;
    std::uint64_t driveBytes = 0;
    std::int64_t leakedAllocs = 0;
    std::int64_t leakedBytes = 0;
    std::int64_t livePeakBytes = 0;
    Layers layers;
    std::vector<double> slicesMs;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

apps::LoadSpec
loadFor(const Spec &sp)
{
    const apps::Scenario &s = sp.scn;
    apps::LoadSpec load;
    load.qps = s.qps;
    load.warmup = secToTicks(s.warmupSec);
    load.measure = secToTicks(s.durationSec);
    load.users = s.skew >= 0.0
                     ? workload::UserPopulation::skewed(s.users, s.skew)
                     : workload::UserPopulation::uniform(s.users);
    load.seed = s.seed + 1;
    load.arrival = apps::arrivalConfigFor(s);
    if (load.warmup == 0)
        usageError(sp.label + ": the driver needs a warm-up window");
    return load;
}

/**
 * Deploy the measured world, drive it, read its counters and tear it
 * down. Everything this allocates is released before it returns, so
 * the caller's heap bracket sees only what the simulator leaks.
 */
void
driveWorld(const Spec &sp, const Options &opt, Tracer &tr, unsigned world,
           Totals &tot, WorldResult &out, SetupTimes &times)
{
    Deployed d = deploy(sp, opt, tr, world, times);
    apps::WorldHandle &h = *d.handle;
    ParallelSimulator &engine = h.engine();
    const unsigned shards = h.shards();
    const bool partition = h.deployment() == apps::Deployment::Partition;
    const apps::LoadSpec load = loadFor(sp);

    // runWorld resets request counters after the warm-up; one observer
    // per shard reads its own shard just before that reset.
    std::vector<ShardSnap> snaps(shards);
    for (unsigned i = 0; i < shards; ++i) {
        engine.addClockObserver(i, load.warmup, [&h, &snaps, &load,
                                                 i](Tick boundary) {
            ShardSnap &sn = snaps[i];
            if (boundary != load.warmup || sn.taken)
                return;
            apps::World &w = h.shard(i);
            sn.taken = true;
            sn.injected = w.app->injected();
            sn.completed = w.app->completed();
            sn.dropped = w.app->droppedRequests();
            sn.failed = w.app->failedRequests();
            sn.netMessages = w.network->messagesDelivered();
            sn.netBytes = w.network->bytesDelivered();
        });
    }

    HostProbe &probe = *tot.probe;
    engine.addClockObserver(0, kProbePoll,
                            [&probe](Tick) { probe.poll(); });

    const Tick simulated = load.warmup + load.measure + load.measure / 5;
    std::vector<SliceLog> slices(opt.traced ? shards : 0);
    std::int64_t livePeak = 0;
    for (unsigned i = 0; i < slices.size(); ++i) {
        const std::size_t n = simulated / kSliceInterval + 8;
        slices[i].wallNs.reserve(n);
        slices[i].cpuNs.reserve(n);
        slices[i].thread.reserve(n);
        engine.addClockObserver(
            i, kSliceInterval, [&slices, &livePeak, &probe, i](Tick) {
                SliceLog &log = slices[i];
                if (log.wallNs.size() == log.wallNs.capacity())
                    return; // never reallocate inside the drive phase
                // Shard 0 runs the probe; its chunks are not slice time.
                log.wallNs.push_back(nowNs() - (i == 0 ? probe.workNs() : 0));
                log.cpuNs.push_back(threadCpuNs());
                log.thread.push_back(pthread_self());
                if (i == 0)
                    livePeak = std::max(livePeak,
                                        heap::totals().liveBytes());
            });
    }

    const heap::Totals hDrive = heap::totals();
    workload::LoadResult r;
    const std::int64_t work0 = probe.workNs();
    const std::uint64_t calls0 = probe.calls();
    const auto t0 = Clock::now();
    {
        SpanScope span(tr, "runWorld", world);
        r = apps::runWorld(h, load);
    }
    const double probeS = static_cast<double>(probe.workNs() - work0) / 1e9;
    tot.runS += secondsSince(t0) - probeS;
    tot.probeS += probeS;
    tot.probeCalls += probe.calls() - calls0;
    const heap::Totals hDone = heap::totals();
    tot.driveAllocs += hDone.allocs - hDrive.allocs;
    tot.driveBytes += hDone.bytesAllocated - hDrive.bytesAllocated;
    livePeak = std::max(livePeak, hDone.liveBytes());
    tot.livePeakBytes = std::max(tot.livePeakBytes, livePeak);

    out.digest = engine.executionDigest();
    out.events = engine.eventsExecuted();
    out.completed = r.completed;
    out.p99Ms = ticksToMs(r.p99);
    // A partition injects and completes every request on shard 0.
    const unsigned e2e = partition ? 1u : shards;
    for (unsigned i = 0; i < e2e; ++i) {
        out.injectedMeasured += h.shard(i).app->injected();
        out.injectedTotal += snaps[i].injected + h.shard(i).app->injected();
    }

    Layers &l = tot.layers;
    for (unsigned i = 0; i < shards; ++i) {
        apps::World &w = h.shard(i);
        out.shardEvents.push_back(w.ctx.eventsExecuted());
        addRegistryCounters(*w.app, l);
        l.netMessages += w.network->messagesDelivered() -
                         snaps[i].netMessages;
        l.netBytes += w.network->bytesDelivered() - snaps[i].netBytes;
        for (const auto &server : w.cluster.servers())
            l.cpuTasks += server->tasksCompleted();
        l.traceEvicted += w.app->traceStore().evicted();
    }
    for (const auto &p : d.pipes)
        l.obsIntervals += p->store().intervalsSampled();
    l.tiers += h.shard(0).app->services().size();
    for (const service::Microservice *svc : h.shard(0).app->services())
        l.instances += svc->instances().size();

    // Slice host time on shard 0; busy share = thread CPU over wall,
    // counted only between samples taken on the same thread.
    if (!slices.empty()) {
        const SliceLog &s0 = slices[0];
        for (std::size_t k = 1; k < s0.wallNs.size(); ++k)
            tot.slicesMs.push_back(
                static_cast<double>(s0.wallNs[k] - s0.wallNs[k - 1]) /
                1e6);
        double busy = 0.0;
        for (const SliceLog &log : slices) {
            std::int64_t cpu = 0, wall = 0;
            for (std::size_t k = 1; k < log.wallNs.size(); ++k) {
                if (!pthread_equal(log.thread[k], log.thread[k - 1]))
                    continue;
                cpu += log.cpuNs[k] - log.cpuNs[k - 1];
                wall += log.wallNs[k] - log.wallNs[k - 1];
            }
            busy += wall > 0 ? static_cast<double>(cpu) /
                                   static_cast<double>(wall)
                             : 0.0;
        }
        out.busyShare = busy / static_cast<double>(slices.size());
    }

    // Requests still in flight when the drain window ends are slow, not
    // lost (flash-crowd backlogs outlast it). Settle, untimed and after
    // every pinned or counted value was read, and count as failed only
    // the requests that never finish.
    engine.runFor(kSettle);
    std::uint64_t settled = 0;
    for (unsigned i = 0; i < e2e; ++i) {
        const service::App &app = *h.shard(i).app;
        const ShardSnap &sn = snaps[i];
        out.dropped += app.droppedRequests();
        out.failed += app.failedRequests();
        settled += sn.completed + sn.dropped + sn.failed + app.completed() +
                   app.droppedRequests() + app.failedRequests();
    }
    out.incomplete =
        out.injectedTotal > settled ? out.injectedTotal - settled : 0;

    tot.teardownS += teardown(d, tr, world);
}

WorldResult
runOne(const Spec &sp, const Options &opt, Tracer &tr, unsigned world,
       Totals &tot)
{
    WorldResult out;
    out.label = sp.label;
    out.shardEvents.reserve(std::max(1u, sp.scn.shards));
    std::vector<double> setupS, worldS, buildS, enableS;
    for (std::vector<double> *v : {&setupS, &worldS, &buildS, &enableS})
        v->reserve(kSetupReps);
    auto note = [&](const SetupTimes &t) {
        setupS.push_back(t.total());
        worldS.push_back(t.world);
        buildS.push_back(t.build);
        enableS.push_back(t.enable);
    };

    // Set-up repetitions: median time, only the last world is driven.
    for (unsigned k = 0; k + 1 < kSetupReps; ++k) {
        SetupTimes times;
        Deployed spare = deploy(sp, opt, tr, world, times);
        teardown(spare, tr, world);
        note(times);
    }

    const heap::Totals hSetup = heap::totals();
    SetupTimes times;
    driveWorld(sp, opt, tr, world, tot, out, times);
    const heap::Totals hGone = heap::totals();
    tot.leakedAllocs += hGone.liveAllocs() - hSetup.liveAllocs();
    tot.leakedBytes += hGone.liveBytes() - hSetup.liveBytes();

    note(times);
    tot.setupS += median(setupS);
    tot.setupParts.world += median(worldS);
    tot.setupParts.build += median(buildS);
    tot.setupParts.enable += median(enableS);
    return out;
}

// -- Ablation pairs -------------------------------------------------------

/** Lets exactly one of two threads run; the other waits its turn. */
class Baton
{
  public:
    void
    wait(unsigned me)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return turn_ == me || done_[1 - me]; });
    }

    /** Give the turn to the other thread and wait for it back. */
    void
    pass(unsigned me)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            turn_ = 1 - me;
        }
        cv_.notify_all();
        wait(me);
    }

    /** Leave for good; the other thread then runs without waiting. */
    void
    finish(unsigned me)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_[me] = true;
            turn_ = 1 - me;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned turn_ = 0;
    bool done_[2] = {false, false};
};

/** One side of an ablation pair: its result and its thread CPU time. */
struct PairSide
{
    WorldResult result;
    double cpuS = 0.0;
};

/**
 * Drive the base world (side 0) and its ablated twin (side 1) of @p sp
 * on two threads pinned to this thread's CPU. They hand a baton back
 * and forth every kBatonSlice of simulated time, so they advance in
 * step and share every host slowdown of the run at a granularity of a
 * few host milliseconds. Each side's cost is its thread's CPU time over
 * runWorld. A partitioned world runs its shards on one thread here
 * (the digest does not depend on the thread count).
 */
void
ablatePair(Spec sp, const Options &opt, Tracer &tr, unsigned world,
           PairSide (&sides)[2])
{
    sp.scn.threads = 1;
    Options ablated = opt;
    if (opt.ablate == "trace")
        ablated.appTracing = false;
    else
        ablated.obs = false;

    SetupTimes unused;
    Deployed worlds[2] = {deploy(sp, opt, tr, world, unused),
                          deploy(sp, ablated, tr, world, unused)};
    const apps::LoadSpec load = loadFor(sp);
    cpu_set_t cpu;
    CPU_ZERO(&cpu);
    CPU_SET(static_cast<unsigned>(std::max(0, sched_getcpu())), &cpu);

    Baton baton;
    auto drive = [&](unsigned k) {
        // Best effort: unpinned, the turns still keep the sides in step.
        pthread_setaffinity_np(pthread_self(), sizeof(cpu), &cpu);
        apps::WorldHandle &h = *worlds[k].handle;
        h.engine().addClockObserver(0, kBatonSlice,
                                    [&baton, k](Tick) { baton.pass(k); });
        baton.wait(k);
        const std::int64_t cpu0 = threadCpuNs();
        const workload::LoadResult r = apps::runWorld(h, load);
        sides[k].cpuS = static_cast<double>(threadCpuNs() - cpu0) / 1e9;
        baton.finish(k);
        WorldResult &out = sides[k].result;
        out.label = sp.label;
        out.digest = h.engine().executionDigest();
        out.events = h.engine().eventsExecuted();
        out.completed = r.completed;
    };
    std::thread base(drive, 0u), twin(drive, 1u);
    base.join();
    twin.join();
    for (Deployed &d : worlds)
        teardown(d, tr, world);
}

// -- Output ---------------------------------------------------------------

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Value at quantile @p q of @p v (nearest rank). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

/** Composed digest of a multi-world workload (FNV-1a over digests). */
std::uint64_t
composeDigest(const std::vector<WorldResult> &worlds)
{
    if (worlds.size() == 1)
        return worlds[0].digest;
    std::uint64_t h = 14695981039346656037ull;
    for (const WorldResult &w : worlds)
        for (int b = 0; b < 8; ++b) {
            h ^= (w.digest >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    return h;
}

void
printResult(const Options &opt, const std::vector<WorldResult> &worlds,
            const Totals &tot)
{
    WorldResult sum;
    for (const WorldResult &w : worlds) {
        sum.events += w.events;
        sum.completed += w.completed;
        sum.injectedMeasured += w.injectedMeasured;
        sum.injectedTotal += w.injectedTotal;
        sum.dropped += w.dropped;
        sum.failed += w.failed;
        sum.incomplete += w.incomplete;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const Layers &l = tot.layers;

    std::ostringstream o;
    o << "{\"workload\": " << json::quote(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"traced\": "
      << (opt.traced ? "true" : "false")
      << ", \"digest\": \"" << hex(composeDigest(worlds)) << "\""
      << ", \"events\": " << sum.events
      << ", \"completed\": " << sum.completed
      << ", \"injected_measured\": " << sum.injectedMeasured
      << ", \"injected_total\": " << sum.injectedTotal
      << ", \"dropped\": " << sum.dropped << ", \"failed\": " << sum.failed
      << ", \"incomplete\": " << sum.incomplete
      << ", \"run_s\": " << num(tot.runS)
      << ", \"probe_calls\": " << tot.probeCalls
      << ", \"probe_s\": " << num(tot.probeS)
      << ", \"setup_s\": " << num(tot.setupS)
      << ", \"world_s\": " << num(tot.setupParts.world)
      << ", \"build_s\": " << num(tot.setupParts.build)
      << ", \"enable_s\": " << num(tot.setupParts.enable)
      << ", \"teardown_s\": " << num(tot.teardownS)
      << ", \"peak_rss_mb\": "
      << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
      << ", \"drive_allocs\": " << tot.driveAllocs
      << ", \"drive_bytes\": " << tot.driveBytes
      << ", \"leaked_allocs\": " << tot.leakedAllocs
      << ", \"leaked_bytes\": " << tot.leakedBytes
      << ", \"live_peak_bytes\": " << tot.livePeakBytes
      << ", \"slices\": " << tot.slicesMs.size()
      << ", \"slice_ms_p50\": " << num(quantile(tot.slicesMs, 0.50))
      << ", \"slice_ms_p99\": " << num(quantile(tot.slicesMs, 0.99))
      << ", \"layers\": {\"rpc_retries\": " << l.rpcRetries
      << ", \"pool_blocked\": " << l.poolBlocked
      << ", \"net_messages\": " << l.netMessages
      << ", \"net_bytes\": " << l.netBytes
      << ", \"cpu_tasks\": " << l.cpuTasks
      << ", \"spans_stored\": " << l.spansStored
      << ", \"trace_evicted\": " << l.traceEvicted
      << ", \"obs_intervals\": " << l.obsIntervals
      << ", \"data_hits\": " << l.dataHits
      << ", \"data_misses\": " << l.dataMisses
      << ", \"data_invalidations\": " << l.dataInvalidations
      << ", \"data_writes\": " << l.dataWrites
      << ", \"replica_writes\": " << l.replicaWrites
      << ", \"replica_ryw_redirects\": " << l.replicaRyw
      << ", \"admission_admitted\": " << l.admAdmitted
      << ", \"admission_rejected\": " << l.admRejected
      << ", \"tiers\": " << l.tiers << ", \"instances\": " << l.instances
      << "}, \"worlds\": [";
    for (std::size_t i = 0; i < worlds.size(); ++i) {
        const WorldResult &w = worlds[i];
        o << (i ? ", " : "") << "{\"label\": " << json::quote(w.label)
          << ", \"digest\": \"" << hex(w.digest) << "\""
          << ", \"events\": " << w.events
          << ", \"completed\": " << w.completed
          << ", \"dropped\": " << w.dropped << ", \"failed\": " << w.failed
          << ", \"incomplete\": " << w.incomplete
          << ", \"p99_ms\": " << num(w.p99Ms)
          << ", \"busy_share\": " << num(w.busyShare)
          << ", \"shard_events\": [";
        for (std::size_t k = 0; k < w.shardEvents.size(); ++k)
            o << (k ? ", " : "") << w.shardEvents[k];
        o << "]}";
    }
    o << "]}\n";
    std::cout << o.str() << std::flush;
}

/** Result of --ablate: both sides' pins and CPU times, summed. */
void
printAblation(const Options &opt,
              const std::vector<WorldResult> (&worlds)[2],
              const double (&cpuS)[2])
{
    std::ostringstream o;
    auto side = [&](unsigned k) {
        std::uint64_t events = 0, completed = 0;
        for (const WorldResult &w : worlds[k]) {
            events += w.events;
            completed += w.completed;
        }
        o << "\"digest\": \"" << hex(composeDigest(worlds[k])) << "\""
          << ", \"events\": " << events << ", \"completed\": " << completed
          << ", \"cpu_s\": " << num(cpuS[k]);
    };
    o << "{\"workload\": " << json::quote(opt.workload)
      << ", \"seed\": " << opt.seed
      << ", \"ablate\": " << json::quote(opt.ablate) << ", ";
    side(0);
    o << ", \"ablated\": {";
    side(1);
    o << "}}\n";
    std::cout << o.str() << std::flush;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const unsigned long long v = std::stoull(text, &used);
        if (used == text.size() && text[0] != '-')
            return v;
    } catch (const std::exception &) {
    }
    usageError("bad value '" + text + "' for " + flag);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = parseCount(a, value());
        else if (a == "--traced")
            opt.traced = true;
        else if (a == "--short")
            opt.shortRun = true;
        else if (a == "--ablate")
            opt.ablate = value();
        else if (a == "--shards")
            opt.shards = static_cast<unsigned>(parseCount(a, value()));
        else if (a == "--threads")
            opt.threads = static_cast<unsigned>(parseCount(a, value()));
        else if (a == "--scenarios")
            opt.scenarios = value();
        else if (a == "--spans")
            opt.spansOut = value();
        else
            usageError("unknown flag '" + a + "'");
    }
    if (opt.workload.empty())
        usageError("--workload is required");
    if (!opt.ablate.empty() && opt.ablate != "trace" && opt.ablate != "obs")
        usageError("--ablate takes 'trace' or 'obs'");
    if (!opt.ablate.empty() && opt.traced)
        usageError("--ablate runs the untraced base against its twin");
    if (opt.shards > 64 || opt.threads > 64)
        usageError("--shards/--threads must be at most 64");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    heap::countBytes(opt.traced);
    const std::vector<Spec> specs = workloadSpecs(opt);

    Tracer tr(opt.traced);
    if (!opt.ablate.empty()) {
        std::vector<WorldResult> worlds[2];
        double cpuS[2] = {0.0, 0.0};
        for (unsigned i = 0; i < specs.size(); ++i) {
            PairSide sides[2];
            ablatePair(specs[i], opt, tr, i, sides);
            for (unsigned k = 0; k < 2; ++k) {
                worlds[k].push_back(sides[k].result);
                cpuS[k] += sides[k].cpuS;
            }
        }
        printAblation(opt, worlds, cpuS);
        return 0;
    }
    HostProbe probe;
    Totals tot;
    tot.probe = &probe;
    if (opt.traced)
        tot.slicesMs.reserve(specs.size() * 4096);
    std::vector<WorldResult> worlds;
    worlds.reserve(specs.size());
    for (unsigned i = 0; i < specs.size(); ++i)
        worlds.push_back(runOne(specs[i], opt, tr, i, tot));

    printResult(opt, worlds, tot);
    if (!opt.spansOut.empty())
        tr.write(opt.spansOut);
    return 0;
}
