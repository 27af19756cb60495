/**
 * @file
 * Determinism regression tests.
 *
 * The simulator's core guarantee is that a run is a pure function of
 * its configuration and seed. These tests drive the full social-network
 * application — cluster, network, RPC stack, tracing — twice with the
 * same seed and require the execution digests (FNV-1a over every
 * executed (tick, seq) pair, see EventQueue::executionDigest()) and the
 * exported traces to be byte-identical, and a different seed to produce
 * a different digest. Any nondeterminism anywhere in the stack (map
 * iteration order, uninitialised reads, pointer-keyed containers)
 * breaks this immediately.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/social_network.hh"
#include "trace/export.hh"
#include "workload/load_sweep.hh"

namespace uqsim {
namespace {

struct RunArtifacts
{
    std::uint64_t digest = 0;
    std::uint64_t executed = 0;
    std::string traceJson;
    std::string runJson;
};

RunArtifacts
runSocialNetwork(std::uint64_t seed, bool tracing = true,
                 std::uint64_t sample_every = 1)
{
    apps::WorldConfig c;
    c.workerServers = 5;
    c.seed = seed;
    c.appConfig.tracing = tracing;
    c.appConfig.traceSampleEvery = sample_every;
    apps::World w(c);
    apps::buildSocialNetwork(w);
    workload::runLoad(*w.app, 200.0, kTicksPerSec / 10,
                      3 * kTicksPerSec / 10,
                      workload::QueryMix::fromApp(*w.app),
                      workload::UserPopulation::uniform(100), seed);
    RunArtifacts a;
    a.digest = w.ctx.executionDigest();
    a.executed = w.ctx.eventsExecuted();
    a.traceJson = trace::toZipkinJson(w.app->traceStore());
    a.runJson = trace::toRunJson(w.app->traceStore(), a.digest);
    return a;
}

TEST(DeterminismTest, SameSeedSameDigestAndTrace)
{
    const RunArtifacts first = runSocialNetwork(123);
    const RunArtifacts second = runSocialNetwork(123);

    EXPECT_GT(first.executed, 5000u); // the run actually did work
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.executed, second.executed);
    EXPECT_EQ(first.traceJson, second.traceJson);
    EXPECT_EQ(first.runJson, second.runJson);
}

TEST(DeterminismTest, DifferentSeedDifferentDigest)
{
    const RunArtifacts a = runSocialNetwork(123);
    const RunArtifacts b = runSocialNetwork(124);
    EXPECT_NE(a.digest, b.digest);
}

TEST(DeterminismTest, TracingIsObservationOnly)
{
    // Collection must never influence the simulation: the digest is
    // identical whether spans are kept, sampled down, or dropped.
    const RunArtifacts traced = runSocialNetwork(123, true);
    const RunArtifacts sampled = runSocialNetwork(123, true, 16);
    const RunArtifacts untraced = runSocialNetwork(123, false);
    EXPECT_EQ(traced.digest, untraced.digest);
    EXPECT_EQ(traced.digest, sampled.digest);
    EXPECT_EQ(traced.executed, untraced.executed);
    EXPECT_GT(traced.traceJson.size(), sampled.traceJson.size());
    EXPECT_EQ(untraced.traceJson, "[]\n");
}

TEST(DeterminismTest, RunJsonEmbedsDigest)
{
    const RunArtifacts a = runSocialNetwork(123);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(a.digest));
    EXPECT_NE(a.runJson.find(hex), std::string::npos);
}

} // namespace
} // namespace uqsim
