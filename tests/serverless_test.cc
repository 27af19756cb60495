/**
 * @file
 * Tests for the serverless platform rewrite and the cost models
 * (Fig 21 machinery).
 */

#include <gtest/gtest.h>

#include "apps/builder.hh"
#include "serverless/platform.hh"
#include "workload/load_sweep.hh"

namespace uqsim::serverless {
namespace {

apps::WorldConfig
smallConfig()
{
    apps::WorldConfig c;
    c.workerServers = 4;
    return c;
}

void
buildTwoTier(apps::World &w)
{
    service::ServiceDef leaf;
    leaf.name = "leaf";
    leaf.handler.compute(Dist::constant(100000.0));
    leaf.threadsPerInstance = 32;
    w.app->addService(std::move(leaf)).addInstance(w.worker(1));
    service::ServiceDef front;
    front.name = "front";
    front.kind = service::ServiceKind::Frontend;
    front.handler.compute(Dist::constant(100000.0)).call("leaf");
    front.threadsPerInstance = 32;
    w.app->addService(std::move(front)).addInstance(w.worker(0));
    w.app->setEntry("front");
    w.app->addQueryType({"q", 1, 1.0, 0, {}});
    w.app->setQosLatency(kTicksPerSec);
    w.app->validate();
}

TEST(CostModelTest, Ec2CostScalesWithInstancesAndTime)
{
    Ec2CostModel ec2;
    const double one = ec2.cost(1, secToTicks(3600));
    EXPECT_NEAR(one, ec2.pricePerInstanceHour, 1e-9);
    EXPECT_NEAR(ec2.cost(10, secToTicks(3600)), 10.0 * one, 1e-9);
    EXPECT_NEAR(ec2.cost(1, secToTicks(1800)), 0.5 * one, 1e-9);
}

TEST(CostModelTest, LambdaBillingQuantumRoundsUp)
{
    LambdaCostModel l;
    EXPECT_EQ(l.billedDuration(1), l.billingQuantum);
    EXPECT_EQ(l.billedDuration(l.billingQuantum), l.billingQuantum);
    EXPECT_EQ(l.billedDuration(l.billingQuantum + 1),
              2 * l.billingQuantum);
}

TEST(CostModelTest, LambdaCostComponents)
{
    LambdaCostModel l;
    // 1M requests, no duration: just the request price.
    EXPECT_NEAR(l.cost(1000000, 0), l.pricePerMillionRequests, 1e-9);
    // GB-seconds: 1000 s at memoryGb.
    EXPECT_NEAR(l.cost(0, secToTicks(1000)),
                1000.0 * l.memoryGb * l.pricePerGbSecond, 1e-9);
}

TEST(LambdaPlatformTest, ApplyAddsStoreAndRewritesHandlers)
{
    apps::World w(smallConfig());
    buildTwoTier(w);
    LambdaConfig cfg;
    LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
    ASSERT_TRUE(w.app->hasService("state-store"));
    // Entry gets dispatch + original + write; leaf also reads input.
    const auto &front = w.app->service("front").def().handler.stages;
    const auto &leaf = w.app->service("leaf").def().handler.stages;
    EXPECT_EQ(front.front().kind, service::Stage::Kind::Delay);
    EXPECT_EQ(front.back().kind, service::Stage::Kind::Call);
    EXPECT_EQ(front.back().target, "state-store");
    // The entry skips the read-input call; leaf functions read their
    // input state first: dispatch, read, original work, write.
    ASSERT_EQ(leaf.size(), 4u);
    EXPECT_EQ(leaf[1].kind, service::Stage::Kind::Call);
    EXPECT_EQ(leaf[1].target, "state-store");
    EXPECT_NE(front[1].kind, service::Stage::Kind::Call);
}

TEST(LambdaPlatformTest, ApplyIsIdempotent)
{
    apps::World w(smallConfig());
    buildTwoTier(w);
    LambdaConfig cfg;
    LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
    const std::size_t stages =
        w.app->service("front").def().handler.stages.size();
    LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
    EXPECT_EQ(w.app->service("front").def().handler.stages.size(), stages);
}

TEST(LambdaPlatformTest, S3SlowerThanRemoteMemory)
{
    auto run = [&](StateStoreKind store) {
        apps::World w(smallConfig());
        buildTwoTier(w);
        LambdaConfig cfg;
        cfg.stateStore = store;
        cfg.coldStartProb = 0.0; // isolate the store effect
        LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
        auto r = workload::runLoad(
            *w.app, 100.0, kTicksPerSec, 2 * kTicksPerSec,
            workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(20), 5);
        return r.p50;
    };
    const Tick s3 = run(StateStoreKind::S3);
    const Tick mem = run(StateStoreKind::RemoteMemory);
    EXPECT_GT(s3, 3 * mem); // Fig 21: most overhead is the S3 path
}

TEST(LambdaPlatformTest, InvocationsCountFunctionTiers)
{
    apps::World w(smallConfig());
    buildTwoTier(w);
    LambdaConfig cfg;
    cfg.coldStartProb = 0.0;
    LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
    for (int i = 0; i < 10; ++i)
        w.app->inject(0, 1);
    w.ctx.run();
    // 10 requests x 2 function tiers.
    EXPECT_EQ(LambdaPlatform::invocations(*w.app, "state-store"), 20u);
    LambdaCostModel cost;
    EXPECT_GT(LambdaPlatform::billedDuration(*w.app, cost, "state-store"),
              0u);
}

TEST(LambdaPlatformTest, ColdStartsFattenTail)
{
    auto run = [&](double cold_prob) {
        apps::World w(smallConfig());
        buildTwoTier(w);
        LambdaConfig cfg;
        cfg.stateStore = StateStoreKind::RemoteMemory;
        cfg.coldStartProb = cold_prob;
        LambdaPlatform::applyToApp(*w.app, cfg, w.cluster);
        auto r = workload::runLoad(
            *w.app, 100.0, kTicksPerSec, 3 * kTicksPerSec,
            workload::QueryMix({1.0}),
            workload::UserPopulation::uniform(20), 5);
        return r;
    };
    const auto warm = run(0.0);
    const auto cold = run(0.10);
    EXPECT_GT(cold.p99, warm.p99 * 2);
}

} // namespace
} // namespace uqsim::serverless
