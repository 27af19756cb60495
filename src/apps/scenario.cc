#include "apps/scenario.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "apps/catalog.hh"
#include "apps/single_tier.hh"
#include "apps/social_network.hh"
#include "apps/swarm.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "gen/topology.hh"
#include "serverless/platform.hh"
#include "workload/generators.hh"

namespace uqsim::apps {

namespace {

/** Golden-ratio stride: distinct shard seeds from one root seed. */
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;

/**
 * XORed into the workload seed to derive each arrival process's RNG
 * stream, so arrival draws never collide with the generator's own
 * query-mix/user draws from the same root seed.
 */
constexpr std::uint64_t kArrivalSeedTag = 0xa0761d6478bd642full;

using Field = ScenarioField;

std::string
ticksField(Tick t)
{
    return strCat(t, "ns");
}

/** Split a comma-separated name list, trimming blanks. */
std::vector<std::string>
splitNameList(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    auto flush = [&] {
        const auto b = cur.find_first_not_of(" \t");
        if (b == std::string::npos) {
            cur.clear();
            return;
        }
        const auto e = cur.find_last_not_of(" \t");
        out.push_back(cur.substr(b, e - b + 1));
        cur.clear();
    };
    for (char ch : text) {
        if (ch == ',')
            flush();
        else
            cur += ch;
    }
    flush();
    return out;
}

void
writeFault(json::Writer &w, const fault::FaultSpec &f)
{
    w.beginObject();
    w.field("kind", fault::faultKindName(f.kind));
    w.field("t", ticksField(f.start));
    w.field("dur", ticksField(f.duration));
    switch (f.kind) {
      case fault::FaultKind::Crash:
        w.field("service", f.service);
        if (f.role != fault::CrashRole::None) {
            w.field("group", f.instance);
            w.field("role", fault::crashRoleName(f.role));
        } else {
            w.field("instance", f.instance);
        }
        break;
      case fault::FaultKind::ErrorRate:
        w.field("service", f.service);
        w.field("rate", f.rate);
        break;
      case fault::FaultKind::Slowdown:
        w.field("server", f.server);
        w.field("factor", f.factor);
        break;
      case fault::FaultKind::Partition:
        w.field("a", strCat(f.groupA.first, "-", f.groupA.last));
        w.field("b", strCat(f.groupB.first, "-", f.groupB.last));
        w.field("loss", f.loss);
        break;
    }
    w.endObject();
}

// -- Values -------------------------------------------------------------

/** Narrow @p v into @p dst, or name the member type's limit. */
template <typename T>
bool
storeCount(T &dst, std::uint64_t v, const std::string &where,
           std::string &error)
{
    if (v > std::numeric_limits<T>::max()) {
        error = strCat(where, " must be <= ",
                       std::numeric_limits<T>::max());
        return false;
    }
    dst = static_cast<T>(v);
    return true;
}

/**
 * A JSON string or number as the text a flag would carry, so scenario
 * files go through the flag parsers. Numbers print exactly: whole ones
 * as integers, the rest in their shortest round-trip form.
 */
std::string
jsonText(const json::Value &v)
{
    if (!v.isNumber())
        return v.string;
    if (v.number >= 0.0 && v.number < 0x1p64 &&
        v.number == std::floor(v.number))
        return strCat(static_cast<std::uint64_t>(v.number));
    char buf[32];
    return std::string(buf,
                       std::to_chars(buf, buf + sizeof buf, v.number).ptr);
}

// -- Irregular knobs, each written out once -----------------------------

/** Parse a "user,batch,best" triple of WRR weights, each >= 1. */
bool
qosWeightsFromFlag(const std::string &text, Scenario &s,
                   std::string &error)
{
    const std::vector<std::string> parts = splitNameList(text);
    std::uint64_t w[3];
    for (std::size_t i = 0; i < 3; ++i)
        if (parts.size() != 3 || !fault::parseCount(parts[i], w[i]) ||
            w[i] == 0 || w[i] > 1000000) {
            error = strCat("bad qos.weights (--qos-weights) '", text,
                           "': want three positive integers "
                           "\"user,batch,best\"");
            return false;
        }
    s.qosWeightUser = static_cast<unsigned>(w[0]);
    s.qosWeightBatch = static_cast<unsigned>(w[1]);
    s.qosWeightBest = static_cast<unsigned>(w[2]);
    return true;
}

bool
qosWeightsFromJson(const json::Value &v, Scenario &s, std::string &error)
{
    return qosWeightsFromFlag(v.isString() ? v.string : "", s, error);
}

void
qosWeightsToJson(json::Writer &w, const std::string &name,
                 const Scenario &s)
{
    w.field(name, strCat(s.qosWeightUser, ",", s.qosWeightBatch, ",",
                         s.qosWeightBest));
}

bool
pinFromFlag(const std::string &v, Scenario &s, std::string &error)
{
    const std::size_t eq = v.find('=');
    data::PlacementPin pin;
    std::uint64_t shard = 0;
    if (eq == std::string::npos || eq == 0 ||
        !fault::parseCount(v.substr(eq + 1), shard) ||
        !storeCount(pin.shard, shard, "", error)) {
        error = strCat("bad pin '", v,
                       "' (want TIER=SHARD, e.g. user-db=1)");
        return false;
    }
    pin.tier = v.substr(0, eq);
    s.pins.push_back(std::move(pin));
    return true;
}

bool
pinsFromJson(const json::Value &v, Scenario &s, std::string &error)
{
    if (!v.isArray()) {
        error = "scenario key 'placement.pin' must be an array";
        return false;
    }
    s.pins.clear();
    for (const json::Value &entry : v.array) {
        for (const auto &kv : entry.object)
            if (kv.first != "tier" && kv.first != "shard") {
                error = strCat("unknown scenario key 'placement.pin.",
                               kv.first, "'");
                return false;
            }
        const json::Value *tier = entry.find("tier");
        const json::Value *shard = entry.find("shard");
        if (tier == nullptr || !tier->isString()) {
            error = "placement.pin entries need a 'tier' name";
            return false;
        }
        const std::string num = shard == nullptr ? "0"
                                : shard->isNumber() ? jsonText(*shard)
                                                    : "";
        if (!pinFromFlag(tier->string + "=" + num, s, error))
            return false;
    }
    return true;
}

void
pinsToJson(json::Writer &w, const std::string &name, const Scenario &s)
{
    w.beginArray(name);
    for (const data::PlacementPin &p : s.pins) {
        w.beginObject();
        w.field("tier", p.tier);
        w.field("shard", p.shard);
        w.endObject();
    }
    w.endArray();
}

bool
faultFromFlag(const std::string &v, Scenario &s, std::string &error)
{
    fault::FaultSpec spec;
    if (!fault::parseFaultFlag(v, spec, error)) {
        error = strCat("bad --fault '", v, "': ", error);
        return false;
    }
    s.faults.push_back(std::move(spec));
    return true;
}

bool
faultFileFromFlag(const std::string &path, Scenario &s, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = strCat("cannot read fault schedule '", path, "'");
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<fault::FaultSpec> specs;
    if (!fault::parseFaultFile(text.str(), specs, error)) {
        error = strCat("bad fault schedule '", path, "': ", error);
        return false;
    }
    s.faults.insert(s.faults.end(), specs.begin(), specs.end());
    return true;
}

bool
faultsFromJson(const json::Value &v, Scenario &s, std::string &error)
{
    return fault::faultsFromJson(v, s.faults, error);
}

void
faultsToJson(json::Writer &w, const std::string &name, const Scenario &s)
{
    w.beginArray(name);
    for (const fault::FaultSpec &f : s.faults)
        writeFault(w, f);
    w.endArray();
}

// -- The table ----------------------------------------------------------

using Range = Field::Range;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range above(double lo) { return {lo, kInf, true, false}; }
constexpr Range atLeast(double lo) { return {lo, kInf, false, false}; }
constexpr Range below(double hi) { return {-kInf, hi, false, true}; }
constexpr Range within(double lo, double hi) { return {lo, hi}; }
constexpr Range kFraction = {0.0, 1.0, true, false}; // (0, 1]
constexpr Range kOpenUnit = {0.0, 1.0, true, true};  // (0, 1)

constexpr Field::Duration
dur(Tick Scenario::*member)
{
    return {member};
}

/**
 * Every knob, in scenarioToJson() order (which the committed
 * scenarios/ corpus pins byte for byte). Defaults are the Scenario
 * member initializers; cross-field rules live in validateScenario().
 */
const Field kFields[] = {
    {"app", "--app", "NAME", &Scenario::app,
     "social-network | media | ecommerce | banking | swarm-cloud | "
     "swarm-edge | social-monolith | nginx | memcached | mongodb | "
     "xapian | recommender"},
    {"qps", "--qps", "N", &Scenario::qps, "offered load, requests/s",
     above(0)},
    {"duration_sec", "--duration", "SEC", &Scenario::durationSec,
     "measured window", above(0)},
    {"warmup_sec", "--warmup", "SEC", &Scenario::warmupSec,
     "warm-up window", atLeast(0)},
    {"servers", "--servers", "N", &Scenario::servers,
     "worker servers per shard", atLeast(1)},
    {"drones", "--drones", "N", &Scenario::drones, "swarm size",
     atLeast(1)},
    {"core", "--core", "MODEL", &Scenario::core, "core model", {},
     "xeon|xeon18|thunderx"},
    {"freq_mhz", "--freq", "MHZ", &Scenario::freqMhz,
     "RAPL frequency cap for all servers, 0 = uncapped", atLeast(0)},
    {"fpga", "--fpga", "", &Scenario::fpga, "enable the TCP offload"},
    {"lambda", "--lambda", "KIND", &Scenario::lambda,
     "serverless execution, unset = off", {}, "|s3|mem"},
    {"slow_servers", "--slow-servers", "N", &Scenario::slowServers,
     "inject N slow servers"},
    {"slow_factor", "--slow-factor", "X", &Scenario::slowFactor,
     "slow-server slowdown multiplier", atLeast(1)},
    {"skew", "--skew", "PCT", &Scenario::skew,
     "user skew percent, < 0 = uniform users", below(100)},
    {"users", "--users", "N", &Scenario::users, "user population",
     atLeast(1)},
    {"seed", "--seed", "N", &Scenario::seed, "world seed"},
    {"shards", "--shards", "N", &Scenario::shards,
     "engine shards, each its own event queue", atLeast(1)},
    {"threads", "--threads", "N", &Scenario::threads,
     "threads running the shards, the caller's included (never "
     "changes results)",
     atLeast(1)},
    {"rpc_timeout", "--rpc-timeout", "DUR", dur(&Scenario::rpcTimeout),
     "per-attempt RPC timeout, 0 = off"},
    {"deadline", "--deadline", "DUR", dur(&Scenario::deadline),
     "end-to-end request deadline, 0 = off"},
    {"retries", "--retries", "N", &Scenario::retries,
     "RPC retries after a failed attempt"},
    {"retry_budget", "--retry-budget", "R", &Scenario::retryBudget,
     "retry tokens earned per request, 0 = unlimited", atLeast(0)},
    {"breaker", "--breaker", "", &Scenario::breaker,
     "per-edge circuit breaker (default thresholds)"},
    {"shed", "--shed", "N", &Scenario::shed,
     "shed arrivals above queue length N, 0 = off"},
    {"trace_capacity", "--trace-capacity", "N", &Scenario::traceCapacity,
     "span ring-buffer capacity", atLeast(1)},
    {"data.keys", "--cache-keys", "N", &Scenario::dataKeys,
     "keyed data tier: keys per app, 0 = legacy fixed-hit-probability "
     "caches"},
    {"data.capacity", "--cache-capacity", "N", &Scenario::dataCapacity,
     "entries per cache instance"},
    {"data.policy", "--cache-policy", "P", &Scenario::dataPolicy,
     "eviction policy", {}, "lru|lfu|slru"},
    {"data.popularity", "--cache-popularity", "P",
     &Scenario::dataPopularity, "key popularity law", {},
     "zipf|uniform|hotspot"},
    {"data.zipf_s", "--cache-zipf", "S", &Scenario::dataZipfS,
     "Zipf skew exponent", atLeast(0)},
    {"data.hot_fraction", "--cache-hot-fraction", "F",
     &Scenario::dataHotFraction, "hotspot: hot key fraction", kFraction},
    {"data.hot_mass", "--cache-hot-mass", "M", &Scenario::dataHotMass,
     "hotspot: mass on hot keys", within(0, 1)},
    {"data.ttl", "--cache-ttl", "DUR", dur(&Scenario::dataTtl),
     "entry time-to-live, 0 = no expiry"},
    {"data.write", "--cache-write", "P", &Scenario::dataWrite,
     "write policy", {}, "through|invalidate"},
    {"data.shift_period", "--cache-shift", "DUR",
     dur(&Scenario::dataShiftPeriod), "hotspot rotation period, 0 = static"},
    {"data.vnodes", "--cache-vnodes", "N", &Scenario::dataVnodes,
     "consistent-hash vnodes per shard", atLeast(1)},
    {"qos.enabled", "--qos", "", &Scenario::qosEnabled,
     "server-side admission control: bounded per-class queues with "
     "weighted dequeue"},
    {"qos.weights", "--qos-weights", "U,B,E",
     Field::Custom{qosWeightsFromJson, qosWeightsToJson,
                   qosWeightsFromFlag},
     "WRR credits for user-facing, batch, best-effort (default 8,2,1)"},
    {"qos.queue", "--qos-queue", "N", &Scenario::qosQueue,
     "per-class queue bound, 0 = tier capacity"},
    {"qos.rate", "--qos-rate", "R", &Scenario::qosRate,
     "token bucket: admitted req/s per instance, 0 = unlimited",
     atLeast(0)},
    {"qos.burst", "--qos-burst", "N", &Scenario::qosBurst,
     "token bucket burst", above(0)},
    {"qos.shed_batch", "--qos-shed-batch", "F", &Scenario::qosShedBatch,
     "shed batch above this backlog fraction", kFraction},
    {"qos.shed_best", "--qos-shed-best", "F", &Scenario::qosShedBest,
     "shed best-effort above this backlog fraction", kFraction},
    {"qos.batch", "--qos-batch", "LIST", &Scenario::qosBatch,
     "comma-separated query types in the batch class"},
    {"qos.best_effort", "--qos-best-effort", "LIST",
     &Scenario::qosBestEffort, "query types in the best-effort class"},
    {"replication.factor", "--replica-factor", "N",
     &Scenario::replicaFactor,
     "replicate each keyed cache shard across N instances, 0 = off"},
    {"replication.quorum", "--replica-quorum", "W",
     &Scenario::replicaQuorum,
     "acks a write needs before the handler unblocks, 0 = majority"},
    {"replication.apply_lag", "--replica-apply-lag", "DUR",
     dur(&Scenario::replicaApplyLag), "follower apply lag per ring hop"},
    {"replication.election_timeout", "--replica-election-timeout", "DUR",
     dur(&Scenario::replicaElectionTimeout),
     "leaderless window before a follower is promoted"},
    {"replication.catch_up", "--replica-catch-up", "DUR",
     dur(&Scenario::replicaCatchUp),
     "log replay a restarted replica needs before it may vote"},
    {"replication.read", "--replica-read", "P", &Scenario::replicaRead,
     "read preference, ryw = read-your-writes", {}, "leader|nearest|ryw"},
    {"replication.txn_keys", "--txn-keys", "N", &Scenario::txnKeys,
     "2PC: write-tagged keyed stages touch N keys as one transaction, "
     "0 = off"},
    {"replication.txn_prepare_timeout", "--txn-prepare-timeout", "DUR",
     dur(&Scenario::txnPrepareTimeout),
     "coordinator deadline on the 2PC prepare phase"},
    {"slo.enabled", nullptr, "", &Scenario::obsEnabled,
     "telemetry sampling"},
    {"slo.interval", "--timeseries-interval", "DUR",
     dur(&Scenario::obsInterval), "telemetry sampling interval",
     above(0)},
    {"slo.ring", "--timeseries-ring", "N", &Scenario::obsRing,
     "ring bound per series", atLeast(1)},
    {"slo.latency", "--slo-latency", "DUR", dur(&Scenario::sloLatency),
     "SLO: latency bound at --slo-quantile, 0 = off"},
    {"slo.quantile", "--slo-quantile", "Q", &Scenario::sloQuantile,
     "quantile the latency bound applies to", kOpenUnit},
    {"slo.window", "--slo-window", "N", &Scenario::sloWindow,
     "consecutive bad intervals before a violation trips", atLeast(1)},
    {"slo.error_rate", "--slo-error-rate", "R", &Scenario::sloErrorRate,
     "SLO: error-rate bound, 0 = off", within(0, 1)},
    {"slo.tier", "--slo-tier", "NAME", &Scenario::sloTier,
     "series under the SLO, unset = the end-to-end stream"},
    {"placement.mode", "--placement", "MODE", &Scenario::placement,
     "how --shards deploys the world: none and replicate run replica "
     "worlds, partition splits one world across shards",
     {}, "none|replicate|partition"},
    {"placement.pin", "--pin", "TIER=SHARD",
     Field::Custom{pinsFromJson, pinsToJson, pinFromFlag},
     "partition: pin a tier to a home shard (repeatable; unpinned "
     "tiers round-robin, the entry tier defaults to shard 0)"},
    {"generate.profile", "--generate", "PROFILE", &Scenario::genProfile,
     "sample a topology from a profile instead of building --app (see "
     "--list-gen-profiles)"},
    {"generate.seed", "--gen-seed", "N", &Scenario::genSeed,
     "topology sampling seed"},
    {"generate.depth", "--gen-depth", "N", &Scenario::genDepth,
     "pin the logic levels, 0 = profile draw", within(0, 8)},
    {"generate.width", "--gen-width", "N", &Scenario::genWidth,
     "pin tiers per level, 0 = profile draw", within(0, 8)},
    {"generate.fanout", "--gen-fanout", "X", &Scenario::genFanout,
     "mean call fan-out, 0 = profile draw", within(0, 8)},
    {"arrival.kind", "--arrival", "KIND", &Scenario::arrival,
     "arrival process; poisson is the legacy byte-identical sampler", {},
     "poisson|mmpp|diurnal|flash"},
    {"arrival.burst", "--arrival-burst", "X", &Scenario::arrivalBurst,
     "mmpp peak/base rate ratio", atLeast(1)},
    {"arrival.duty", "--arrival-duty", "F", &Scenario::arrivalDuty,
     "mmpp peak-state time fraction", kOpenUnit},
    {"arrival.dwell", "--arrival-dwell", "DUR",
     dur(&Scenario::arrivalDwell), "mmpp mean peak sojourn", above(0)},
    {"arrival.period", "--arrival-period", "DUR",
     dur(&Scenario::arrivalPeriod), "diurnal day length", above(0)},
    {"arrival.low", "--arrival-low", "F", &Scenario::arrivalLow,
     "diurnal trough rate fraction", kFraction},
    {"arrival.flash_at", "--arrival-flash-at", "DUR",
     dur(&Scenario::arrivalFlashAt), "flash-crowd onset"},
    {"arrival.flash_ramp", "--arrival-flash-ramp", "DUR",
     dur(&Scenario::arrivalFlashRamp), "flash ramp-up / decay constant",
     above(0)},
    {"arrival.flash_mult", "--arrival-flash-mult", "X",
     &Scenario::arrivalFlashMult, "flash peak rate multiplier",
     atLeast(1)},
    {"arrival.flash_hold", "--arrival-flash-hold", "DUR",
     dur(&Scenario::arrivalFlashHold), "flash plateau length"},
    {"faults", "--fault", "SPEC",
     Field::Custom{faultsFromJson, faultsToJson, faultFromFlag},
     "one fault window, repeatable: "
     "crash@t=2s,dur=1s,service=X,instance=0 "
     "crash@t=2s,dur=1s,service=X,group=0,role=leader "
     "errors@t=1s,dur=2s,service=X,rate=0.5 "
     "slow@t=1s,dur=2s,server=0,factor=10 "
     "partition@t=3s,dur=1s,a=0-1,b=2-4,loss=1"},
    {nullptr, "--faults", "FILE",
     Field::Custom{nullptr, nullptr, faultFileFromFlag},
     "JSON fault schedule (see docs/RESILIENCE.md)"},
};

// -- Generated from the table -------------------------------------------

/** The member type behind a slot alternative (void if not a member). */
template <typename S>
struct MemberType
{
    using type = void;
};
template <typename T>
struct MemberType<T Scenario::*>
{
    using type = T;
};

template <typename T>
constexpr bool kIsNumeric = std::is_arithmetic_v<T> &&
                            !std::is_same_v<T, bool>;

/** Set @p f's member from @p text; errors name the value's @p where. */
bool
setFromText(const Field &f, Scenario &s, const std::string &text,
            const std::string &where, std::string &error)
{
    auto bad = [&](const char *what, const char *hint = "") {
        error = strCat("bad ", what, " '", text, "' for ", where, hint);
        return false;
    };
    return std::visit([&](auto slot) -> bool {
        using S = decltype(slot);
        using T = typename MemberType<S>::type;
        std::uint64_t n = 0;
        if constexpr (std::is_same_v<S, Field::Custom>) {
            return slot.fromFlag(text, s, error);
        } else if constexpr (std::is_same_v<S, Field::Duration>) {
            return fault::parseDuration(text, s.*slot.member) ||
                   bad("duration", " (want e.g. 50ms, 2s, 800us)");
        } else if constexpr (std::is_same_v<T, bool>) {
            s.*slot = true; // a switch takes no value
            return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
            s.*slot = text;
            return true;
        } else if constexpr (std::is_same_v<T, double>) {
            return fault::parseNumber(text, s.*slot) ||
                   bad("number", " (want a finite number)");
        } else {
            return fault::parseCount(text, n)
                       ? storeCount(s.*slot, n, where, error)
                       : bad("non-negative integer");
        }
    }, f.slot);
}

bool
setFromJson(const Field &f, Scenario &s, const json::Value &v,
            std::string &error)
{
    if (const auto *c = std::get_if<Field::Custom>(&f.slot))
        return c->fromJson(v, s, error);
    const std::string where = strCat("scenario key '", f.key, "'");
    const auto *sw = std::get_if<bool Scenario::*>(&f.slot);
    if (sw && v.isBool()) {
        s.**sw = v.boolean;
        return true;
    }
    const bool text = std::holds_alternative<std::string Scenario::*>(f.slot);
    const bool dur = std::holds_alternative<Field::Duration>(f.slot);
    if (!sw && (v.isString() ? text || dur : v.isNumber() && !text))
        return setFromText(f, s, jsonText(v), where, error);
    error = strCat(where, " must be ",
                   sw     ? "a boolean"
                   : text ? "a string"
                   : dur  ? "a duration (e.g. \"50ms\")"
                          : "a number");
    return false;
}

void
writeField(json::Writer &w, const Field &f, const std::string &name,
           const Scenario &s)
{
    std::visit([&](auto slot) {
        using S = decltype(slot);
        using T = typename MemberType<S>::type;
        if constexpr (std::is_same_v<S, Field::Custom>)
            slot.toJson(w, name, s);
        else if constexpr (std::is_same_v<S, Field::Duration>)
            w.field(name, ticksField(s.*slot.member));
        else if constexpr (kIsNumeric<T> && !std::is_same_v<T, double>)
            w.field(name, static_cast<std::uint64_t>(s.*slot));
        else
            w.field(name, s.*slot);
    }, f.slot);
}

/** A number, count or duration row's value; NaN for other kinds. */
double
numericValue(const Field &f, const Scenario &s)
{
    return std::visit([&](auto slot) -> double {
        using S = decltype(slot);
        if constexpr (std::is_same_v<S, Field::Duration>)
            return static_cast<double>(s.*slot.member);
        else if constexpr (kIsNumeric<typename MemberType<S>::type>)
            return static_cast<double>(s.*slot);
        else
            return std::numeric_limits<double>::quiet_NaN();
    }, f.slot);
}

/** @p f's value as --help shows a default; "" for switches/custom. */
std::string
valueText(const Field &f, const Scenario &s)
{
    return std::visit([&](auto slot) -> std::string {
        using S = decltype(slot);
        using T = typename MemberType<S>::type;
        if constexpr (std::is_same_v<S, Field::Duration>) {
            const Tick t = s.*slot.member;
            return t % kTicksPerSec == 0  ? strCat(t / kTicksPerSec, "s")
                   : t % kTicksPerMs == 0 ? strCat(t / kTicksPerMs, "ms")
                   : t % kTicksPerUs == 0 ? strCat(t / kTicksPerUs, "us")
                                          : ticksField(t);
        } else if constexpr (kIsNumeric<T> ||
                             std::is_same_v<T, std::string>) {
            return strCat(s.*slot);
        } else {
            return "";
        }
    }, f.slot);
}

/** "lru | lfu | slru" from "lru|lfu|slru" (an empty value left out). */
std::string
namesText(const char *names)
{
    std::string out;
    for (const char *c = names + (*names == '|'); *c; ++c)
        out += *c == '|' ? std::string(" | ") : std::string(1, *c);
    return out;
}

bool
hasRange(const Range &r)
{
    return std::isfinite(r.lo) || std::isfinite(r.hi);
}

std::string
rangeText(const Range &r)
{
    if (std::isfinite(r.lo) && std::isfinite(r.hi))
        return strCat("in ", r.loOpen ? "(" : "[", r.lo, ", ", r.hi,
                      r.hiOpen ? ")" : "]");
    if (std::isfinite(r.lo))
        return strCat(r.loOpen ? "> " : ">= ", r.lo);
    return strCat(r.hiOpen ? "< " : "<= ", r.hi);
}

/** The row's own check: enum membership or numeric range. */
bool
checkField(const Field &f, const Scenario &s, std::string &error)
{
    const std::string label =
        f.flag ? strCat(f.key, " (", f.flag, ")") : std::string(f.key);
    if (f.names) {
        const std::string v = valueText(f, s);
        if (v.find('|') == std::string::npos &&
            strCat("|", f.names, "|").find("|" + v + "|") !=
                std::string::npos)
            return true;
        error = strCat("unknown ", label, " '", v, "' (want ",
                       namesText(f.names), ")");
        return false;
    }
    if (!hasRange(f.range) || f.range.contains(numericValue(f, s)))
        return true;
    error = strCat(label, " must be ", rangeText(f.range));
    return false;
}

/** The row whose key or flag (@p name) equals @p value. */
const Field *
findRow(const char *Field::*name, const std::string &value)
{
    for (const Field &f : kFields)
        if (f.*name && value == f.*name)
            return &f;
    return nullptr;
}

/** True when @p name is a block of keys ("data" holds data.keys). */
bool
isBlock(const std::string &name)
{
    for (const Field &f : kFields)
        if (f.key && std::string_view(f.key).starts_with(name + "."))
            return true;
    return false;
}

} // namespace

std::span<const ScenarioField>
scenarioFields()
{
    return kFields;
}

const ScenarioField *
findScenarioFlag(const std::string &flag)
{
    return findRow(&Field::flag, flag);
}

bool
applyScenarioFlag(const ScenarioField &f, const std::string &value,
                  Scenario &s, std::string &error)
{
    if (!setFromText(f, s, value, f.flag, error))
        return false;
    const std::string_view flag = f.flag;
    if (flag.starts_with("--qos-"))
        s.qosEnabled = true;
    if (flag.starts_with("--slo-") || flag.starts_with("--timeseries-"))
        s.obsEnabled = true;
    return true;
}

std::string
helpEntry(const std::string &flag, const std::string &text)
{
    constexpr std::size_t kColumn = 26, kWidth = 79;
    std::string out, line = "  " + flag + " ";
    line.resize(std::max(line.size(), kColumn), ' ');
    std::istringstream words(text);
    for (std::string word; words >> word; line += word + " ") {
        if (line.size() + word.size() > kWidth &&
            line.find_first_not_of(' ', kColumn) != std::string::npos) {
            out += line.substr(0, line.find_last_not_of(' ') + 1) + "\n";
            line.assign(kColumn, ' ');
        }
    }
    return out + line.substr(0, line.find_last_not_of(' ') + 1) + "\n";
}

std::string
scenarioFlagHelp()
{
    const Scenario defaults;
    std::string out;
    for (const Field &f : kFields) {
        if (f.flag == nullptr)
            continue;
        std::string notes;
        auto note = [&](const std::string &n) {
            notes += (notes.empty() ? " (" : "; ") + n;
        };
        if (f.names)
            note(namesText(f.names));
        if (hasRange(f.range))
            note(rangeText(f.range));
        if (const std::string def = valueText(f, defaults); !def.empty())
            note("default " + def);
        out += helpEntry(strCat(f.flag, " ", f.arg),
                         f.help + notes + (notes.empty() ? "" : ")"));
    }
    return out;
}

bool
validateScenario(const Scenario &s, std::string &error)
{
    for (const Field &f : kFields)
        if (f.key && !checkField(f, s, error))
            return false;
    auto fail = [&](std::string msg) {
        error = std::move(msg);
        return false;
    };

    if (s.qosWeightUser == 0 || s.qosWeightBatch == 0 ||
        s.qosWeightBest == 0)
        return fail("qos.weights (--qos-weights) must all be >= 1");
    if (s.dataKeys > 0 && s.dataCapacity == 0)
        return fail("data.capacity (--cache-capacity) must be positive "
                    "when data.keys (--cache-keys) is set");
    if (s.replicaFactor == 1)
        return fail("replication.factor (--replica-factor) must be 0 "
                    "(off) or >= 2");
    if (s.replicaFactor >= 2 && s.dataKeys == 0)
        return fail("replication.factor (--replica-factor) needs "
                    "data.keys (--cache-keys) > 0");
    if (s.replicaQuorum > s.replicaFactor)
        return fail("replication.quorum (--replica-quorum) must be <= "
                    "replication.factor (--replica-factor)");
    if (s.replicaFactor >= 2 &&
        (s.replicaApplyLag == 0 || s.replicaElectionTimeout == 0))
        return fail("replication.apply_lag and .election_timeout "
                    "(--replica-apply-lag, --replica-election-timeout) "
                    "must be positive");
    if (s.txnKeys == 1)
        return fail("replication.txn_keys (--txn-keys) must be 0 (off) "
                    "or >= 2");
    if (s.txnKeys >= 2 && s.replicaFactor < 2)
        return fail("replication.txn_keys (--txn-keys) needs "
                    "replication.factor (--replica-factor) >= 2");
    if (s.txnKeys >= 2 && s.txnPrepareTimeout == 0)
        return fail("replication.txn_prepare_timeout "
                    "(--txn-prepare-timeout) must be positive");

    if (!s.pins.empty() && s.placement != "partition")
        return fail("placement.pin (--pin) needs placement.mode "
                    "'partition' (--placement partition)");
    if (s.placement == "partition") {
        // Partitioning splits ONE world across shards; features that
        // assume either replica worlds or whole-world ownership of the
        // fault/offload machinery are rejected rather than silently
        // mis-modelled.
        const char *unsupported =
            !s.faults.empty()               ? "faults (--fault)"
            : s.replicaFactor >= 2          ? "replication (--replica-factor)"
            : s.fpga                        ? "fpga (--fpga)"
            : !s.lambda.empty()             ? "lambda tiers (--lambda)"
            : s.app.rfind("swarm-", 0) == 0 ? "swarm apps (--app)"
                                            : nullptr;
        if (unsupported)
            return fail(strCat("placement 'partition' (--placement) does "
                               "not support ",
                               unsupported));
        for (std::size_t i = 0; i < s.pins.size(); ++i) {
            if (s.pins[i].shard >= s.shards)
                return fail(strCat("placement pin '", s.pins[i].tier,
                                   "' targets shard ", s.pins[i].shard,
                                   " but only ", s.shards,
                                   " shards exist"));
            for (std::size_t j = 0; j < i; ++j)
                if (s.pins[i].tier == s.pins[j].tier)
                    return fail(strCat("duplicate placement pin for "
                                       "tier '",
                                       s.pins[i].tier, "'"));
        }
    }

    if (!s.genProfile.empty() &&
        gen::genProfileByName(s.genProfile) == nullptr)
        return fail(strCat("unknown generate.profile (--generate) '",
                           s.genProfile, "' (try --list-gen-profiles)"));
    if (s.genProfile.empty() &&
        (s.genDepth != 0 || s.genWidth != 0 || s.genFanout != 0.0))
        return fail("generate.depth/width/fanout (--gen-depth/--gen-width/"
                    "--gen-fanout) need generate.profile (--generate)");
    return true;
}

bool
parseScenarioJson(const std::string &text, Scenario &out,
                  std::string &error)
{
    json::Value root;
    if (!json::parse(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "scenario must be a JSON object";
        return false;
    }

    Scenario s = out; // absent keys keep the caller's defaults
    auto read = [&](const std::string &block, const std::string &name,
                    const json::Value &v) {
        const std::string key = block.empty() ? name : block + "." + name;
        // Dotted names exist only as members of their block's object.
        const Field *f = name.find('.') == std::string::npos
                             ? findRow(&Field::key, key)
                             : nullptr;
        if (f == nullptr) {
            error = strCat("unknown scenario key '", key, "'");
            return false;
        }
        return setFromJson(*f, s, v, error);
    };
    for (const auto &[key, v] : root.object) {
        if (!isBlock(key)) {
            if (!read("", key, v))
                return false;
        } else if (!v.isObject()) {
            error = strCat("scenario key '", key, "' must be an object");
            return false;
        } else {
            for (const auto &[name, member] : v.object)
                if (!read(key, name, member))
                    return false;
        }
    }
    if (!validateScenario(s, error))
        return false;
    out = std::move(s);
    return true;
}

std::string
scenarioToJson(const Scenario &s)
{
    json::Writer w;
    w.beginObject();
    std::string block; // the open "data"/"qos"/... object, if any
    for (const Field &f : kFields) {
        if (f.key == nullptr)
            continue;
        const std::string key = f.key;
        const std::size_t dot = key.find('.');
        const std::string row_block =
            dot == std::string::npos ? "" : key.substr(0, dot);
        if (row_block != block) {
            if (!block.empty())
                w.endObject();
            if (!row_block.empty())
                w.beginObject(row_block);
            block = row_block;
        }
        writeField(w, f,
                   dot == std::string::npos ? key : key.substr(dot + 1), s);
    }
    if (!block.empty())
        w.endObject();
    w.endObject();
    return w.str() + "\n";
}

bool
coreModelByName(const std::string &name, cpu::CoreModel &out)
{
    if (name == "xeon")
        out = cpu::CoreModel::xeon();
    else if (name == "xeon18")
        out = cpu::CoreModel::xeonAt1800();
    else if (name == "thunderx")
        out = cpu::CoreModel::thunderx();
    else
        return false;
    return true;
}

data::DataTierConfig
dataTierConfigFor(const Scenario &s)
{
    data::DataTierConfig c;
    c.keyspace.keys = s.dataKeys;
    if (!data::popularityByName(s.dataPopularity, c.keyspace.popularity))
        fatal(strCat("unknown data popularity '", s.dataPopularity, "'"));
    c.keyspace.zipfS = s.dataZipfS;
    c.keyspace.hotFraction = s.dataHotFraction;
    c.keyspace.hotMass = s.dataHotMass;
    c.keyspace.shiftPeriod = s.dataShiftPeriod;
    c.cache.capacity = s.dataCapacity;
    if (!data::cachePolicyByName(s.dataPolicy, c.cache.policy))
        fatal(strCat("unknown data policy '", s.dataPolicy, "'"));
    if (!data::writePolicyByName(s.dataWrite, c.cache.write))
        fatal(strCat("unknown data write policy '", s.dataWrite, "'"));
    c.cache.ttl = s.dataTtl;
    c.vnodes = s.dataVnodes;
    return c;
}

replica::ReplicationConfig
replicationConfigFor(const Scenario &s)
{
    replica::ReplicationConfig c;
    c.factor = s.replicaFactor;
    c.writeQuorum = s.replicaQuorum;
    c.applyLag = s.replicaApplyLag;
    c.electionTimeout = s.replicaElectionTimeout;
    c.catchUp = s.replicaCatchUp;
    if (!replica::readPreferenceByName(s.replicaRead, c.readPreference))
        fatal(strCat("unknown read preference '", s.replicaRead, "'"));
    c.txnKeys = s.txnKeys;
    c.txnPrepareTimeout = s.txnPrepareTimeout;
    return c;
}

service::QosConfig
qosConfigFor(const Scenario &s)
{
    service::QosConfig c;
    c.policy.weights = {s.qosWeightUser, s.qosWeightBatch,
                        s.qosWeightBest};
    c.policy.classQueueCapacity = s.qosQueue;
    c.policy.ratePerInstance = s.qosRate;
    c.policy.burst = s.qosBurst;
    c.policy.shedAt = {1.0, s.qosShedBatch, s.qosShedBest};
    c.batchQueries = splitNameList(s.qosBatch);
    c.bestEffortQueries = splitNameList(s.qosBestEffort);
    return c;
}

workload::ArrivalConfig
arrivalConfigFor(const Scenario &s)
{
    workload::ArrivalConfig c;
    if (!workload::arrivalKindByName(s.arrival, c.kind))
        fatal(strCat("unknown arrival kind '", s.arrival, "'"));
    c.burst = s.arrivalBurst;
    c.duty = s.arrivalDuty;
    c.dwell = s.arrivalDwell;
    c.period = s.arrivalPeriod;
    c.low = s.arrivalLow;
    c.flashAt = s.arrivalFlashAt;
    c.flashRamp = s.arrivalFlashRamp;
    c.flashMult = s.arrivalFlashMult;
    c.flashHold = s.arrivalFlashHold;
    return c;
}

obs::PipelineConfig
obsConfigFor(const Scenario &s)
{
    obs::PipelineConfig c;
    c.interval = s.obsInterval;
    c.ring = static_cast<std::size_t>(s.obsRing);
    c.slo.tier = s.sloTier;
    c.slo.latency = s.sloLatency;
    c.slo.quantile = s.sloQuantile;
    c.slo.window = s.sloWindow;
    c.slo.errorRate = s.sloErrorRate;
    return c;
}

std::unique_ptr<obs::Pipeline>
attachObservability(World &w, const Scenario &s)
{
    // Arming an SLO objective implies telemetry: the monitor cannot
    // run without the sampler feeding it.
    const bool enabled =
        s.obsEnabled || s.sloLatency > 0 || s.sloErrorRate > 0.0;
    if (!enabled)
        return nullptr;
    auto p = std::make_unique<obs::Pipeline>(*w.app, obsConfigFor(s));
    p->start();
    return p;
}

WorldConfig
worldConfigFor(const Scenario &s)
{
    WorldConfig config;
    config.workerServers = s.servers;
    if (!coreModelByName(s.core, config.coreModel))
        fatal(strCat("unknown core model '", s.core, "'"));
    config.seed = s.seed;
    config.appConfig.traceCapacity = s.traceCapacity;
    if (s.fpga)
        config.appConfig.fpga = net::FpgaOffloadModel::on();
    return config;
}

void
buildScenarioApp(World &w, const Scenario &s)
{
    const std::string &n = s.app;
    SwarmOptions so;
    so.drones = s.drones;
    // A generate block replaces the hand-written app with a sampled
    // topology; every opt-in layer below composes with it unchanged.
    if (!s.genProfile.empty()) {
        const gen::GenProfile *p = gen::genProfileByName(s.genProfile);
        if (p == nullptr)
            fatal(strCat("unknown gen profile '", s.genProfile,
                         "' (try --list-gen-profiles)"));
        gen::GenOverrides ov;
        ov.depth = s.genDepth;
        ov.width = s.genWidth;
        ov.fanout = s.genFanout;
        gen::buildGeneratedApp(w,
                               gen::sampleTopology(*p, s.genSeed, ov));
    } else if (n == "social-network")
        buildSocialNetwork(w);
    else if (n == "social-monolith")
        buildSocialNetworkMonolith(w);
    else if (n == "media")
        buildApp(w, AppId::MediaService);
    else if (n == "ecommerce")
        buildApp(w, AppId::Ecommerce);
    else if (n == "banking")
        buildApp(w, AppId::Banking);
    else if (n == "swarm-cloud")
        buildSwarm(w, SwarmVariant::Cloud, so);
    else if (n == "swarm-edge")
        buildSwarm(w, SwarmVariant::Edge, so);
    else if (n == "nginx")
        buildSingleTier(w, SingleTierKind::Nginx);
    else if (n == "memcached")
        buildSingleTier(w, SingleTierKind::Memcached);
    else if (n == "mongodb")
        buildSingleTier(w, SingleTierKind::MongoDB);
    else if (n == "xapian")
        buildSingleTier(w, SingleTierKind::Xapian);
    else if (n == "recommender")
        buildSingleTier(w, SingleTierKind::Recommender);
    else
        fatal(strCat("unknown app '", n, "' (try --list)"));

    // The keyed data tier is strictly opt-in: without keys the build
    // above is byte-identical to every pre-data-tier scenario.
    if (s.dataKeys > 0)
        w.app->enableKeyedData(dataTierConfigFor(s));

    // Replica groups layer on top of the keyed tier — and are just as
    // strictly opt-in (factor < 2 leaves no replica state behind).
    if (s.replicaFactor >= 2)
        w.app->enableReplication(replicationConfigFor(s));

    // So is admission control: without a qos block every instance
    // queue stays one FIFO and execution keeps the pinned digests.
    if (s.qosEnabled)
        w.app->enableQos(qosConfigFor(s));
}

WorldHandle::WorldHandle(const WorldConfig &base, unsigned shards,
                         unsigned threads, Deployment deployment)
    : deployment_(deployment),
      // Partitioned shards exchange messages whose minimum delay is
      // the wire latency, so that is the engine's conservative
      // lookahead. Replica worlds (and any one-shard deployment)
      // never talk across shards: unbounded.
      engine_({shards,
               deployment == Deployment::Partition && shards > 1
                   ? base.netConfig.wireLatency
                   : kMaxTick,
               threads})
{
    worlds_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
        WorldConfig config = base;
        // Replicas are N distinct experiments (stride-derived seeds);
        // a partition is ONE world, so every shard must draw the
        // identical construction randomness.
        config.seed = deployment == Deployment::Partition
                          ? base.seed
                          : shardSeed(base.seed, i);
        worlds_.push_back(
            std::make_unique<World>(config, engine_.context(i)));
    }
}

void
WorldHandle::enablePartition(const std::vector<data::PlacementPin> &pins)
{
    if (deployment_ != Deployment::Partition)
        fatal("enablePartition on a non-partition deployment");

    const World &w0 = *worlds_[0];
    std::vector<std::string> tiers;
    tiers.reserve(w0.app->services().size());
    for (const service::Microservice *svc : w0.app->services())
        tiers.push_back(svc->name());

    // Cross-shard calls address tiers by service-order index, so every
    // shard must have built the identical graph.
    for (unsigned i = 1; i < shards(); ++i) {
        const auto &svcs = worlds_[i]->app->services();
        if (svcs.size() != tiers.size())
            fatal("partitioned shards built different graphs");
        for (std::size_t t = 0; t < tiers.size(); ++t)
            if (svcs[t]->name() != tiers[t])
                fatal("partitioned shards built different graphs");
    }

    std::map<std::string, unsigned> homes;
    std::string error;
    if (!data::assignPlacement(tiers, w0.app->entry(), shards(), pins,
                               homes, error))
        fatal(error);

    std::vector<service::App *> peers;
    peers.reserve(shards());
    for (unsigned i = 0; i < shards(); ++i)
        peers.push_back(worlds_[i]->app.get());
    for (unsigned i = 0; i < shards(); ++i)
        worlds_[i]->app->enablePartition(peers, homes);
}

std::uint64_t
WorldHandle::shardSeed(std::uint64_t seed, unsigned shard)
{
    return seed + shard * kSeedStride;
}

workload::LoadResult
runWorld(WorldHandle &w, const LoadSpec &spec)
{
    const unsigned shards = w.shards();
    const bool partitioned = w.deployment() == Deployment::Partition;
    ParallelSimulator &engine = w.engine();

    // Replicate: per-shard generators, each shard an independent
    // replica fed its slice of the offered load with a shard-derived
    // workload seed. Construction/start order mirrors
    // workload::runLoad() so the one-shard call sequence (and digest)
    // is unchanged.
    //
    // Partition: one generator on shard 0 — the world's single entry
    // point — at the full rate with the plain seed; handler work lands
    // on whichever shard each tier calls home.
    std::vector<std::unique_ptr<workload::OpenLoopGenerator>> gens;
    const unsigned gen_shards = partitioned ? 1u : shards;
    gens.reserve(gen_shards);
    for (unsigned i = 0; i < gen_shards; ++i) {
        service::App &app = *w.shard(i).app;
        const std::uint64_t gen_seed =
            partitioned ? spec.seed : WorldHandle::shardSeed(spec.seed, i);
        const double gen_qps =
            partitioned ? spec.qps : spec.qps / shards;
        gens.push_back(std::make_unique<workload::OpenLoopGenerator>(
            app, workload::QueryMix::fromApp(app), spec.users,
            gen_seed));
        gens.back()->setQps(gen_qps);
        // The Poisson default attaches nothing: the generator keeps
        // drawing gaps from its own stream, bit-identical to every
        // pre-arrival-library run. Other processes get a disjoint
        // stream so only the arrival instants change.
        if (spec.arrival.kind != workload::ArrivalKind::Poisson)
            gens.back()->setArrivalProcess(
                workload::ArrivalProcess::make(
                    spec.arrival, gen_qps,
                    gen_seed ^ kArrivalSeedTag));
        gens.back()->start();
    }
    engine.runFor(spec.warmup);
    for (unsigned i = 0; i < shards; ++i)
        w.shard(i).app->statReset();
    engine.runFor(spec.measure);
    for (auto &gen : gens)
        gen->stop();
    // Bounded drain window, as in runLoad(): completions of arrivals
    // inside the window are kept; rates use the arrival window only.
    engine.runFor(spec.measure / 5);
    const double span_sec = ticksToSec(spec.measure);

    // Aggregate the measured window. Replicate sums end-to-end results
    // across all shards (with one shard every expression degenerates
    // to runLoad()'s own); a partition completes every request on the
    // injecting shard 0, remote per-tier work already folded back into
    // each request, so only shard 0 carries end-to-end numbers.
    // Utilization spans every shard's servers in both modes.
    workload::LoadResult r;
    r.offeredQps = spec.qps;
    QuantileSketch latency;
    std::uint64_t within_qos = 0;
    double util_sum = 0.0, net_sum = 0.0, comp_sum = 0.0;
    const unsigned e2e_shards = partitioned ? 1u : shards;
    for (unsigned i = 0; i < e2e_shards; ++i) {
        service::App &app = *w.shard(i).app;
        r.completed += app.completed();
        r.dropped += app.droppedRequests();
        within_qos += app.completedWithinQos();
        // Per query type: merging endToEndLatency() would build one
        // more table per shard.
        for (unsigned qt = 0; qt < app.queryTypes().size(); ++qt)
            latency.merge(app.endToEndLatencyFor(qt));
        const double n = static_cast<double>(app.completed());
        net_sum += app.meanNetworkTimePerRequest() * n;
        comp_sum += app.meanAppTimePerRequest() * n;
    }
    for (unsigned i = 0; i < shards; ++i)
        util_sum += w.shard(i).app->cluster().averageUtilization();
    r.p50 = latency.p50();
    r.p95 = latency.p95();
    r.p99 = latency.p99();
    r.meanMs = ticksToMs(static_cast<Tick>(latency.mean()));
    r.achievedQps =
        span_sec > 0.0 ? static_cast<double>(r.completed) / span_sec : 0.0;
    r.goodputQps = span_sec > 0.0
                       ? static_cast<double>(within_qos) / span_sec
                       : 0.0;
    r.meanUtilization = util_sum / std::max(1u, shards);
    r.networkShare =
        (net_sum + comp_sum) > 0.0 ? net_sum / (net_sum + comp_sum) : 0.0;
    return r;
}

LoadSpec
loadSpecFor(const Scenario &s)
{
    LoadSpec load;
    load.qps = s.qps;
    load.warmup = secToTicks(s.warmupSec);
    load.measure = secToTicks(s.durationSec);
    load.users = s.skew >= 0.0
                     ? workload::UserPopulation::skewed(s.users, s.skew)
                     : workload::UserPopulation::uniform(s.users);
    load.seed = s.seed + 1;
    load.arrival = arrivalConfigFor(s);
    return load;
}

ScenarioWorld
deployScenario(const Scenario &s)
{
    const Deployment deployment = s.placement == "partition"
                                      ? Deployment::Partition
                                      : Deployment::Replicate;
    ScenarioWorld out;
    out.handle = std::make_unique<WorldHandle>(worldConfigFor(s), s.shards,
                                               s.threads, deployment);

    serverless::LambdaConfig lambda_cfg;
    if (!s.lambda.empty())
        lambda_cfg.stateStore =
            s.lambda == "s3" ? serverless::StateStoreKind::S3
                             : serverless::StateStoreKind::RemoteMemory;

    // Build and configure every shard identically (modulo its seed).
    // Per-shard application order matches the classic single-world
    // driver step for step, so one shard reproduces it bit-for-bit.
    for (unsigned i = 0; i < out.handle->shards(); ++i) {
        World &world = out.handle->shard(i);
        buildScenarioApp(world, s);
        service::App &app = *world.app;

        if (!s.lambda.empty())
            serverless::LambdaPlatform::applyToApp(app, lambda_cfg,
                                                   world.cluster);
        if (s.freqMhz > 0.0)
            world.cluster.setAllFrequenciesMhz(s.freqMhz);
        if (s.slowServers > 0)
            world.cluster.injectSlowServers(s.slowServers,
                                            s.slowFactor);

        // Client-side resilience: the same policy on the callers of
        // every tier. Left untouched (all knobs at defaults) the RPC
        // path is the legacy one and digests match older builds.
        if (s.rpcTimeout || s.retries || s.breaker || s.shed) {
            for (service::Microservice *svc : app.services()) {
                rpc::ResiliencePolicy &pol =
                    svc->mutableDef().resilience;
                pol.timeout = s.rpcTimeout;
                if (s.retries) {
                    pol.retry.maxAttempts = s.retries + 1;
                    pol.retry.budgetRatio = s.retryBudget;
                }
                pol.breaker.enabled = s.breaker;
                pol.shedQueueLength = s.shed;
            }
        }
        if (s.deadline)
            app.setRequestDeadline(s.deadline);

        if (!s.faults.empty()) {
            auto injector = std::make_unique<fault::FaultInjector>(
                app, WorldHandle::shardSeed(s.seed, i));
            injector->addAll(s.faults);
            injector->arm();
            out.injectors.push_back(std::move(injector));
        }

        if (auto pipe = attachObservability(world, s))
            out.pipelines.push_back(std::move(pipe));
    }
    // Pin every tier to its home shard now that each shard's
    // (identical) graph exists. Dies on a pin naming an unknown tier,
    // the one placement error validation alone cannot catch.
    if (deployment == Deployment::Partition)
        out.handle->enablePartition(s.pins);
    return out;
}

ScenarioRunResult
runScenario(const Scenario &s)
{
    ScenarioWorld world = deployScenario(s);
    WorldHandle &h = *world.handle;
    ScenarioRunResult out;
    out.load = runWorld(h, loadSpecFor(s));
    out.digest = h.engine().executionDigest();
    out.events = h.engine().eventsExecuted();
    for (unsigned i = 0; i < h.shards(); ++i)
        out.failed += h.shard(i).app->failedRequests();
    return out;
}

} // namespace uqsim::apps
