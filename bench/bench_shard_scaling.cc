/**
 * @file
 * Shard-scaling throughput of the parallel DES core, in both
 * deployment modes.
 *
 * Replicate panel: the social-network world as N replica shards with
 * a fixed per-shard load (total simulated work grows with N), driven
 * by N worker threads — weak scaling of independent worlds. Its
 * speedup is the events/sec ratio to one shard.
 *
 * Partition panel: ONE social-network world at a fixed total load,
 * split across N shards by the placement layer — strong scaling of a
 * single application graph. Its speedup is the 1-shard wall time over
 * the N-shard wall time for the same scenario and simulated window:
 * N shards execute more events than one (every cross-shard leg adds
 * some), so an events/sec ratio would flatter them. The engine's
 * conservative lookahead is
 * the inter-shard wire latency, so the panel uses a cross-rack wire
 * (--wire-us, default 100us) to keep barrier rounds coarse enough to
 * amortize; a datacenter-local 10us wire stresses the barrier path
 * instead of the scaling claim.
 *
 * The digest column doubles as a correctness check: for a fixed shard
 * count it must not change with the thread count, and the recorded
 * value lets CI diff runs across commits.
 *
 * By default the bench only records (--min-speedup 0 and
 * --min-partition-speedup 0): meaningful speedups need as many
 * physical cores as shards, which CI runners and laptops may not
 * have, so the JSON records the host's core count. Pass
 * --min-speedup 2 / --min-partition-speedup 1.5 on a >=4-core machine
 * to enforce the scaling claims.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenario.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "core/table.hh"

using namespace uqsim;

namespace {

struct Row
{
    unsigned shards = 1;
    unsigned threads = 1;
    std::uint64_t events = 0;
    double wallSec = 0.0;
    double eventsPerSec = 0.0;
    double speedup = 1.0;
    std::uint64_t digest = 0;
};

Row
runConfig(unsigned shards, double qps_per_shard, double duration_sec)
{
    apps::Scenario scn;
    scn.app = "social-network";
    scn.qps = qps_per_shard * shards;
    scn.durationSec = duration_sec;
    scn.warmupSec = 0.5;
    scn.shards = shards;
    scn.threads = shards;

    apps::WorldHandle w(apps::worldConfigFor(scn), scn.shards,
                        scn.threads);
    for (unsigned s = 0; s < shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    apps::LoadSpec load;
    load.qps = scn.qps;
    load.warmup = secToTicks(scn.warmupSec);
    load.measure = secToTicks(scn.durationSec);
    load.users = workload::UserPopulation::uniform(scn.users);
    load.seed = scn.seed + 1;

    const auto t0 = std::chrono::steady_clock::now();
    apps::runWorld(w, load);
    const auto t1 = std::chrono::steady_clock::now();

    Row row;
    row.shards = shards;
    row.threads = shards;
    row.events = w.engine().eventsExecuted();
    row.wallSec = std::chrono::duration<double>(t1 - t0).count();
    row.eventsPerSec =
        row.wallSec > 0.0 ? static_cast<double>(row.events) / row.wallSec
                          : 0.0;
    row.digest = w.engine().executionDigest();
    return row;
}

Row
runPartitionConfig(unsigned shards, double qps, double duration_sec,
                   Tick wire_latency)
{
    apps::Scenario scn;
    scn.app = "social-network";
    scn.qps = qps;
    scn.durationSec = duration_sec;
    scn.warmupSec = 0.5;
    scn.shards = shards;
    scn.threads = shards;

    apps::WorldConfig config = apps::worldConfigFor(scn);
    config.netConfig.wireLatency = wire_latency;
    apps::WorldHandle w(config, shards, shards,
                        apps::Deployment::Partition);
    for (unsigned s = 0; s < shards; ++s)
        apps::buildScenarioApp(w.shard(s), scn);
    w.enablePartition({}); // round-robin homes, entry on shard 0

    apps::LoadSpec spec;
    spec.qps = scn.qps;
    spec.warmup = secToTicks(scn.warmupSec);
    spec.measure = secToTicks(scn.durationSec);
    spec.users = workload::UserPopulation::uniform(scn.users);
    spec.seed = scn.seed + 1;

    const auto t0 = std::chrono::steady_clock::now();
    apps::runWorld(w, spec);
    const auto t1 = std::chrono::steady_clock::now();

    Row row;
    row.shards = shards;
    row.threads = shards;
    row.events = w.engine().eventsExecuted();
    row.wallSec = std::chrono::duration<double>(t1 - t0).count();
    row.eventsPerSec =
        row.wallSec > 0.0 ? static_cast<double>(row.events) / row.wallSec
                          : 0.0;
    row.digest = w.engine().executionDigest();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    double min_speedup = 0.0;
    double min_partition_speedup = 0.0;
    double qps_per_shard = 300.0;
    double qps_partition = 1200.0;
    double wire_us = 100.0;
    double duration_sec = 3.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&] {
            if (i + 1 >= argc)
                fatal(strCat("missing value for ", a));
            return std::string(argv[++i]);
        };
        if (a == "--out")
            out_path = need();
        else if (a == "--min-speedup")
            min_speedup = std::atof(need().c_str());
        else if (a == "--min-partition-speedup")
            min_partition_speedup = std::atof(need().c_str());
        else if (a == "--qps-per-shard")
            qps_per_shard = std::atof(need().c_str());
        else if (a == "--qps-partition")
            qps_partition = std::atof(need().c_str());
        else if (a == "--wire-us")
            wire_us = std::atof(need().c_str());
        else if (a == "--duration")
            duration_sec = std::atof(need().c_str());
        else
            fatal(strCat("unknown option '", a, "'"));
    }
    const Tick wire_latency =
        static_cast<Tick>(wire_us * kTicksPerUs);

    printBanner(std::cout, "shard scaling (social-network, fixed "
                           "per-shard load)");
    TextTable table({"shards", "threads", "events", "wall(s)",
                     "events/sec", "speedup", "digest"});
    std::vector<Row> rows;
    for (unsigned shards : {1u, 2u, 4u}) {
        Row row = runConfig(shards, qps_per_shard, duration_sec);
        if (!rows.empty())
            row.speedup = row.eventsPerSec / rows.front().eventsPerSec;
        rows.push_back(row);
        std::ostringstream digest;
        digest << std::hex << row.digest;
        table.add(row.shards, row.threads, row.events,
                  fmtDouble(row.wallSec, 2),
                  fmtDouble(row.eventsPerSec / 1e6, 2) + "M",
                  fmtDouble(row.speedup, 2) + "x", digest.str());
    }
    table.print(std::cout);

    printBanner(std::cout, "partition scaling (ONE social-network "
                           "world, fixed total load; speedup is 1-shard "
                           "wall time over N-shard wall time)");
    TextTable ptable({"shards", "threads", "events", "wall(s)",
                      "events/sec", "speedup", "digest"});
    std::vector<Row> prows;
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        Row row = runPartitionConfig(shards, qps_partition,
                                     duration_sec, wire_latency);
        if (!prows.empty() && row.wallSec > 0.0)
            row.speedup = prows.front().wallSec / row.wallSec;
        prows.push_back(row);
        std::ostringstream digest;
        digest << std::hex << row.digest;
        ptable.add(row.shards, row.threads, row.events,
                   fmtDouble(row.wallSec, 2),
                   fmtDouble(row.eventsPerSec / 1e6, 2) + "M",
                   fmtDouble(row.speedup, 2) + "x", digest.str());
    }
    ptable.print(std::cout);

    auto writeRows = [](json::Writer &w, const std::vector<Row> &rs) {
        for (const Row &row : rs) {
            w.beginObject();
            w.field("shards", row.shards);
            w.field("threads", row.threads);
            w.field("events", row.events);
            w.field("wall_sec", row.wallSec);
            w.field("events_per_sec", row.eventsPerSec);
            w.field("speedup_vs_1", row.speedup);
            std::ostringstream digest;
            digest << std::hex << row.digest;
            w.field("digest", digest.str());
            w.endObject();
        }
    };

    json::Writer w;
    w.beginObject();
    w.field("bench", "shard_scaling");
    w.field("app", "social-network");
    w.field("qps_per_shard", qps_per_shard);
    w.field("qps_partition", qps_partition);
    w.field("wire_us", wire_us);
    w.field("duration_sec", duration_sec);
    w.field("host_cores", std::thread::hardware_concurrency());
    w.beginArray("rows");
    writeRows(w, rows);
    w.endArray();
    w.beginArray("partition_rows");
    writeRows(w, prows);
    w.endArray();
    w.endObject();
    const std::string doc = w.str() + "\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal(strCat("cannot open '", out_path, "' for writing"));
        out << doc;
        std::cout << "wrote " << out_path << "\n";
    } else {
        std::cout << doc;
    }

    const double best = rows.back().speedup;
    if (min_speedup > 0.0 && best < min_speedup) {
        std::cerr << "FAIL: speedup " << best << "x at "
                  << rows.back().shards << " shards is below the --min-"
                  << "speedup " << min_speedup << "x gate\n";
        return 1;
    }
    // The partition gate reads the 4-shard row (index 2), not the
    // 8-shard tail: 8 partitioned shards oversubscribe the 4-vCPU CI
    // runners the gate is tuned for.
    const double part4 = prows[2].speedup;
    if (min_partition_speedup > 0.0 && part4 < min_partition_speedup) {
        std::cerr << "FAIL: partition speedup " << part4 << "x at "
                  << prows[2].shards << " shards is below the --min-"
                  << "partition-speedup " << min_partition_speedup
                  << "x gate\n";
        return 1;
    }
    return 0;
}
