/**
 * @file
 * Scenario config round-trip and validation tests.
 *
 * A scenario JSON file plus the binary version fully describes a run,
 * so the surface must be lossless (dump -> parse -> dump is the
 * identity), strict (unknown keys and malformed values are errors, not
 * silently ignored), and layered (absent keys keep the caller's
 * defaults, which is what lets CLI flags before --config act as
 * defaults the file overrides).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "apps/scenario.hh"
#include "core/json.hh"
#include "core/logging.hh"

namespace uqsim {
namespace {

apps::Scenario
fullScenario()
{
    apps::Scenario s;
    s.app = "ecommerce";
    s.qps = 450.5;
    s.durationSec = 8.0;
    s.warmupSec = 1.5;
    s.servers = 7;
    s.drones = 16;
    s.core = "thunderx";
    s.freqMhz = 1800.0;
    s.fpga = true;
    s.lambda = "s3";
    s.slowServers = 2;
    s.slowFactor = 12.5;
    s.skew = 90.0;
    s.users = 5000;
    s.seed = 1234;
    s.shards = 4;
    s.threads = 2;
    s.rpcTimeout = 50 * kTicksPerMs;
    s.deadline = 200 * kTicksPerMs;
    s.retries = 3;
    s.retryBudget = 0.2;
    s.breaker = true;
    s.shed = 64;
    s.qosEnabled = true;
    s.qosWeightUser = 16;
    s.qosWeightBatch = 4;
    s.qosWeightBest = 2;
    s.qosQueue = 24;
    s.qosRate = 500.0;
    s.qosBurst = 12.0;
    s.qosShedBatch = 0.6;
    s.qosShedBest = 0.3;
    s.qosBatch = "addToCart,wishlist";
    s.qosBestEffort = "browseCatalogue";
    s.dataKeys = 100000;
    s.dataCapacity = 2048;
    s.dataPolicy = "slru";
    s.dataPopularity = "hotspot";
    s.dataZipfS = 1.2;
    s.dataHotFraction = 0.05;
    s.dataHotMass = 0.8;
    s.dataTtl = 500 * kTicksPerMs;
    s.dataWrite = "invalidate";
    s.dataShiftPeriod = 2 * kTicksPerSec;
    s.dataVnodes = 32;
    s.traceCapacity = 1 << 12;

    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.start = 2 * kTicksPerSec;
    crash.duration = kTicksPerSec;
    crash.service = "frontend";
    crash.instance = 1;
    s.faults.push_back(crash);

    fault::FaultSpec part;
    part.kind = fault::FaultKind::Partition;
    part.start = 3 * kTicksPerSec;
    part.duration = kTicksPerSec;
    part.groupA = {0, 1};
    part.groupB = {2, 4};
    part.loss = 0.5;
    s.faults.push_back(part);
    return s;
}

TEST(ScenarioTest, DumpParseDumpIsIdentity)
{
    const apps::Scenario original = fullScenario();
    const std::string doc = apps::scenarioToJson(original);

    apps::Scenario parsed; // defaults; every key in doc overrides
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(doc, parsed, error)) << error;
    EXPECT_EQ(apps::scenarioToJson(parsed), doc);

    // Spot-check semantic equality, not just textual round-trip.
    EXPECT_EQ(parsed.app, "ecommerce");
    EXPECT_DOUBLE_EQ(parsed.qps, 450.5);
    EXPECT_EQ(parsed.rpcTimeout, 50 * kTicksPerMs);
    EXPECT_EQ(parsed.shards, 4u);
    EXPECT_EQ(parsed.threads, 2u);
    EXPECT_TRUE(parsed.fpga);
    ASSERT_EQ(parsed.faults.size(), 2u);
    EXPECT_EQ(parsed.faults[0].kind, fault::FaultKind::Crash);
    EXPECT_EQ(parsed.faults[0].service, "frontend");
    EXPECT_EQ(parsed.faults[1].kind, fault::FaultKind::Partition);
    EXPECT_EQ(parsed.faults[1].groupB.last, 4u);
    EXPECT_DOUBLE_EQ(parsed.faults[1].loss, 0.5);
    EXPECT_EQ(parsed.dataKeys, 100000u);
    EXPECT_EQ(parsed.dataCapacity, 2048u);
    EXPECT_EQ(parsed.dataPolicy, "slru");
    EXPECT_EQ(parsed.dataPopularity, "hotspot");
    EXPECT_DOUBLE_EQ(parsed.dataZipfS, 1.2);
    EXPECT_EQ(parsed.dataTtl, 500 * kTicksPerMs);
    EXPECT_EQ(parsed.dataWrite, "invalidate");
    EXPECT_EQ(parsed.dataShiftPeriod, 2 * kTicksPerSec);
    EXPECT_EQ(parsed.dataVnodes, 32u);
    EXPECT_TRUE(parsed.qosEnabled);
    EXPECT_EQ(parsed.qosWeightUser, 16u);
    EXPECT_EQ(parsed.qosWeightBatch, 4u);
    EXPECT_EQ(parsed.qosWeightBest, 2u);
    EXPECT_EQ(parsed.qosQueue, 24u);
    EXPECT_DOUBLE_EQ(parsed.qosRate, 500.0);
    EXPECT_DOUBLE_EQ(parsed.qosBurst, 12.0);
    EXPECT_DOUBLE_EQ(parsed.qosShedBatch, 0.6);
    EXPECT_DOUBLE_EQ(parsed.qosShedBest, 0.3);
    EXPECT_EQ(parsed.qosBatch, "addToCart,wishlist");
    EXPECT_EQ(parsed.qosBestEffort, "browseCatalogue");
}

TEST(ScenarioTest, RejectsBadQosValues)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"wieghts\": \"8,2,1\"}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'qos.wieghts'"),
              std::string::npos);

    // Malformed weight triples: wrong arity, junk, and a zero weight
    // (a zero-weight class would starve under WRR).
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,2\"}}", s, error));
    EXPECT_NE(error.find("qos.weights"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,two,1\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,0,1\"}}", s, error));

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"rate\": -1}}", s, error));
    EXPECT_NE(error.find("qos.rate"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"burst\": 0}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"shed_batch\": 1.5}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"shed_best\": 0}}", s, error));
}

TEST(ScenarioTest, AbsentQosKeysKeepCallerDefaults)
{
    apps::Scenario s;
    s.qosQueue = 48;
    s.qosBatch = "wishlist";
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(
        "{\"qos\": {\"enabled\": true, \"rate\": 250}}", s, error))
        << error;
    EXPECT_TRUE(s.qosEnabled);
    EXPECT_DOUBLE_EQ(s.qosRate, 250.0);
    EXPECT_EQ(s.qosQueue, 48u);       // caller's default survives
    EXPECT_EQ(s.qosBatch, "wishlist");
    EXPECT_EQ(s.qosWeightUser, 8u);   // untouched struct default
}

TEST(ScenarioTest, RejectsBadDataTierValues)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"keyz\": 10}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'data.keyz'"),
              std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"policy\": \"mru\"}}", s, error));
    EXPECT_NE(error.find("data.policy"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"popularity\": \"pareto\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"write\": \"back\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"keys\": 10, \"capacity\": 0}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"hot_fraction\": 1.5}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"vnodes\": 0}}", s, error));
}

TEST(ScenarioTest, AbsentKeysKeepCallerDefaults)
{
    apps::Scenario s;
    s.qps = 777.0;
    s.shards = 3;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson("{\"servers\": 9}", s, error))
        << error;
    EXPECT_EQ(s.servers, 9u);      // from the document
    EXPECT_DOUBLE_EQ(s.qps, 777.0); // caller's default survives
    EXPECT_EQ(s.shards, 3u);
}

TEST(ScenarioTest, DurationsAcceptStringsAndBareMilliseconds)
{
    apps::Scenario s;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(
        "{\"rpc_timeout\": \"2s\", \"deadline\": 150}", s, error))
        << error;
    EXPECT_EQ(s.rpcTimeout, 2 * kTicksPerSec);
    EXPECT_EQ(s.deadline, 150 * kTicksPerMs);
}

TEST(ScenarioTest, RejectsMalformedInput)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson("not json", s, error));

    EXPECT_FALSE(apps::parseScenarioJson("[1, 2]", s, error));
    EXPECT_NE(error.find("object"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson("{\"qqps\": 10}", s, error));
    EXPECT_NE(error.find("unknown scenario key"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson("{\"qps\": \"fast\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"servers\": 2.5}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"qps\": 0}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"shards\": 0}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"skew\": 100}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"core\": \"pentium\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"lambda\": \"gcf\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"faults\": [{\"kind\": \"meteor\"}]}", s, error));
    EXPECT_NE(error.find("unknown fault kind"), std::string::npos);
}

TEST(ScenarioTest, ShardSeedDerivation)
{
    // Shard 0 must reuse the root seed exactly: that is what makes a
    // one-shard WorldHandle bit-identical to a standalone World.
    EXPECT_EQ(apps::WorldHandle::shardSeed(42, 0), 42u);
    EXPECT_NE(apps::WorldHandle::shardSeed(42, 1), 42u);
    EXPECT_NE(apps::WorldHandle::shardSeed(42, 1),
              apps::WorldHandle::shardSeed(42, 2));
}

TEST(ScenarioTest, WorldHandleStructure)
{
    apps::Scenario scn;
    scn.servers = 3;
    apps::WorldHandle w(apps::worldConfigFor(scn), 3, 2);
    EXPECT_EQ(w.shards(), 3u);
    EXPECT_EQ(w.engine().shardCount(), 3u);
    EXPECT_EQ(w.engine().threads(), 2u);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(w.shard(s).config().seed,
                  apps::WorldHandle::shardSeed(scn.seed, s));
        EXPECT_EQ(w.shard(s).ctx.shardCount(), 3u);
        EXPECT_EQ(w.shard(s).ctx.shard(), s);
    }
}

TEST(ScenarioTest, PlacementRoundTrip)
{
    apps::Scenario s;
    s.placement = "partition";
    s.shards = 4;
    s.pins = {{"posts-db", 3}, {"nginx-lb", 0}};
    const std::string doc = apps::scenarioToJson(s);

    apps::Scenario parsed;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(doc, parsed, error)) << error;
    EXPECT_EQ(apps::scenarioToJson(parsed), doc);
    EXPECT_EQ(parsed.placement, "partition");
    ASSERT_EQ(parsed.pins.size(), 2u);
    EXPECT_EQ(parsed.pins[0].tier, "posts-db");
    EXPECT_EQ(parsed.pins[0].shard, 3u);
    EXPECT_EQ(parsed.pins[1].tier, "nginx-lb");
    EXPECT_EQ(parsed.pins[1].shard, 0u);
}

TEST(ScenarioTest, RejectsBadPlacement)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"sharded\"}}", s, error));
    EXPECT_NE(error.find("unknown placement.mode"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mdoe\": \"partition\"}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'placement.mdoe'"),
              std::string::npos);

    // Pins without partition mode.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"pin\": [{\"tier\": \"a\", \"shard\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("placement.mode 'partition'"),
              std::string::npos);

    // Pin shard out of range for the shard count.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shard\": 2}]}}",
        s, error));
    EXPECT_NE(error.find("only 2 shards exist"), std::string::npos);

    // Duplicate pin.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shard\": 0}, "
        "{\"tier\": \"a\", \"shard\": 1}]}}",
        s, error));
    EXPECT_NE(error.find("duplicate placement pin"), std::string::npos);

    // Malformed pin entries.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"shard\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("'tier' name"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shardd\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("placement.pin.shardd"), std::string::npos);

    // Partition excludes replica-worlds-only features.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, \"fpga\": true}", s,
        error));
    EXPECT_NE(error.find("does not support fpga"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, "
        "\"app\": \"swarm-edge\"}",
        s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, \"data\": "
        "{\"keys\": 100, \"capacity\": 64}, \"replication\": "
        "{\"factor\": 3}}",
        s, error));
    EXPECT_NE(error.find("does not support replication"),
              std::string::npos);
}

TEST(ScenarioTest, RejectsCountsBeyondTheMemberType)
{
    apps::Scenario s;
    std::string error;
    // 2^32 + 3 would narrow to 3 servers.
    EXPECT_FALSE(apps::parseScenarioJson("{\"servers\": 4294967299}", s,
                                         error));
    EXPECT_NE(error.find("servers"), std::string::npos) << error;
    EXPECT_EQ(s.servers, 5u);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"slo\": {\"window\": 4294967296}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"seed\": -1}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"users\": 1e30}", s, error));
    // The largest value of each type still fits.
    ASSERT_TRUE(apps::parseScenarioJson("{\"servers\": 4294967295}", s,
                                        error))
        << error;
    EXPECT_EQ(s.servers, 4294967295u);
}

/** Every scalar of @p v keyed by its dotted path ("data.keys"). */
void
flatten(const json::Value &v, const std::string &path,
        std::map<std::string, std::string> &out)
{
    const std::string prefix = path.empty() ? "" : path + ".";
    if (v.isObject()) {
        for (const auto &[key, member] : v.object)
            flatten(member, prefix + key, out);
    } else if (v.isArray()) {
        for (std::size_t i = 0; i < v.array.size(); ++i)
            flatten(v.array[i], strCat(prefix, i), out);
    } else if (v.isBool()) {
        out[path] = v.boolean ? "true" : "false";
    } else {
        ASSERT_TRUE(json::scalarToString(v, out[path])) << path;
    }
}

std::map<std::string, std::string>
flatDump(const apps::Scenario &s)
{
    json::Value root;
    std::string error;
    EXPECT_TRUE(json::parse(apps::scenarioToJson(s), root, error)) << error;
    std::map<std::string, std::string> out;
    flatten(root, "", out);
    return out;
}

/** A valid value for @p f's flag that differs from the one in @p s. */
std::string
otherValue(const apps::ScenarioField &f, const apps::Scenario &s)
{
    using Sc = apps::Scenario;
    static const std::map<std::string, std::string> kIrregular = {
        {"--qos-weights", "16,4,2"},
        {"--pin", "posts-db=1"},
        {"--fault", "errors@t=1s,dur=1s,service=nginx-lb,rate=0.5"},
        {"--generate", "media"},
    };
    if (auto it = kIrregular.find(f.flag); it != kIrregular.end())
        return it->second;
    if (std::holds_alternative<bool Sc::*>(f.slot))
        return "";
    if (const auto *d = std::get_if<apps::ScenarioField::Duration>(&f.slot))
        return strCat(s.*d->member + kTicksPerMs, "ns");
    if (const auto *t = std::get_if<std::string Sc::*>(&f.slot)) {
        std::istringstream names(f.names ? f.names : "");
        for (std::string n; std::getline(names, n, '|');)
            if (!n.empty() && n != s.**t)
                return n;
        return "x";
    }
    // Numbers and counts: one up, else half, whichever is in range.
    const double cur = std::stod(flatDump(s).at(f.key));
    return strCat(f.range.contains(cur + 1) ? cur + 1 : cur / 2);
}

TEST(ScenarioTest, EveryFieldRoundTripsFromItsFlag)
{
    // Every row, set through its flag to a value other than the one it
    // has, must change exactly its own key in the dump (plus the
    // enable switch its flag family implies), and the dump must parse
    // back to a byte-identical document.
    unsigned walked = 0;
    for (const apps::ScenarioField &f : apps::scenarioFields()) {
        if (f.key == nullptr || f.flag == nullptr)
            continue;
        const std::string key = f.key, flag = f.flag;
        apps::Scenario base; // the row's prerequisites, else defaults
        if (key.starts_with("replication.")) {
            base.dataKeys = 1000;
            base.replicaFactor = 3;
            base.txnKeys = 2;
        } else if (key.starts_with("generate.")) {
            base.genProfile = "social-network";
        } else if (key == "placement.pin") {
            base.placement = "partition";
            base.shards = 2;
        }
        apps::Scenario s = base;
        std::string error;
        ASSERT_TRUE(apps::applyScenarioFlag(f, otherValue(f, base), s,
                                            error))
            << flag << ": " << error;
        ASSERT_TRUE(apps::validateScenario(s, error))
            << flag << ": " << error;

        std::map<std::string, std::string> before = flatDump(base);
        bool own_key_changed = false;
        for (const auto &[path, value] : flatDump(s)) {
            if (before[path] == value)
                continue;
            const bool own = path == key || path.starts_with(key + ".");
            own_key_changed = own_key_changed || own;
            const bool implied =
                (path == "qos.enabled" && flag.starts_with("--qos-")) ||
                (path == "slo.enabled" &&
                 (flag.starts_with("--slo-") ||
                  flag.starts_with("--timeseries-")));
            EXPECT_TRUE(own || implied) << flag << " changed " << path;
        }
        EXPECT_TRUE(own_key_changed) << flag << " left " << key << " as is";

        const std::string dump = apps::scenarioToJson(s);
        apps::Scenario parsed;
        ASSERT_TRUE(apps::parseScenarioJson(dump, parsed, error))
            << flag << ": " << error;
        EXPECT_EQ(apps::scenarioToJson(parsed), dump) << flag;
        ++walked;
    }
    EXPECT_GE(walked, 75u);
}

TEST(ScenarioTest, FaultFileFlagAppendsToFaults)
{
    const std::string path = testing::TempDir() + "scenario_faults.json";
    std::ofstream(path) << "[{\"kind\": \"errors\", \"t\": \"1s\", "
                           "\"dur\": \"1s\", \"service\": \"nginx-lb\", "
                           "\"rate\": 0.5}]";
    apps::Scenario s;
    std::string error;
    ASSERT_TRUE(apps::applyScenarioFlag(
        *apps::findScenarioFlag("--faults"), path, s, error))
        << error;
    std::remove(path.c_str());
    ASSERT_EQ(s.faults.size(), 1u);
    EXPECT_EQ(flatDump(s).at("faults.0.service"), "nginx-lb");
    EXPECT_FALSE(apps::applyScenarioFlag(
        *apps::findScenarioFlag("--faults"), path, s, error));
}

TEST(ScenarioTest, NonFiniteAndWrappedFlagValuesAreRejected)
{
    apps::Scenario s;
    std::string error;
    const apps::ScenarioField &qps = *apps::findScenarioFlag("--qps");
    for (const char *bad : {"nan", "inf", "-inf", "1e999", "3o0"})
        EXPECT_FALSE(apps::applyScenarioFlag(qps, bad, s, error)) << bad;
    EXPECT_FALSE(apps::applyScenarioFlag(
        *apps::findScenarioFlag("--servers"), "4294967298", s, error));
    EXPECT_EQ(s.servers, 5u);
    EXPECT_DOUBLE_EQ(s.qps, 300.0);
}

TEST(ScenarioTest, EnumValuesMatchExactlyOneName)
{
    apps::Scenario s;
    std::string error;
    s.dataPolicy = "lru|lfu";
    EXPECT_FALSE(apps::validateScenario(s, error));
    EXPECT_NE(error.find("data.policy (--cache-policy)"), std::string::npos)
        << error;
    s.dataPolicy = "";
    EXPECT_FALSE(apps::validateScenario(s, error));
    s.dataPolicy = "slru";
    s.lambda = ""; // an unset lambda is the "off" value
    EXPECT_TRUE(apps::validateScenario(s, error)) << error;
}

TEST(ScenarioTest, DefaultScenarioReproducesThePinnedDigest)
{
    // The shared deploy path behind uqsim_run and uqsim_sweep: the
    // default scenario is `uqsim_run --app social-network`.
    EXPECT_EQ(apps::runScenario(apps::Scenario{}).digest,
              0x3e4c3130724e0248ull);
}

TEST(ScenarioTest, CoreModelNames)
{
    cpu::CoreModel m;
    EXPECT_TRUE(apps::coreModelByName("xeon", m));
    EXPECT_TRUE(apps::coreModelByName("xeon18", m));
    EXPECT_TRUE(apps::coreModelByName("thunderx", m));
    EXPECT_FALSE(apps::coreModelByName("m1", m));
}

} // namespace
} // namespace uqsim
