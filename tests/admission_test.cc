/**
 * @file
 * Admission-control validation: unit behaviour of the token bucket
 * and the multi-class queue, plus closed-form queueing checks.
 *
 * The statistical tier follows queueing_theory_test.cc: nothing about
 * blocking or priority delay is hard-coded in the model, so driving
 * the AdmissionQueue as a bounded M/M/1/K station must reproduce the
 * Erlang loss-chain blocking probability (checked with a chi-square
 * statistic), and a 2-class weighted queue with lopsided weights must
 * match the non-preemptive priority mean-wait formulas.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/rng.hh"
#include "core/simulator.hh"
#include "core/types.hh"
#include "service/admission.hh"

namespace uqsim::service {
namespace {

AdmissionPolicy
policyWith(unsigned cap, double rate = 0.0, double burst = 32.0)
{
    AdmissionPolicy pol;
    pol.classQueueCapacity = cap;
    pol.ratePerInstance = rate;
    pol.burst = burst;
    return pol;
}

TEST(TokenBucketTest, BurstThenDry)
{
    TokenBucket tb(1000.0, 10.0); // 1000 tokens/s, burst 10
    tb.reset(0);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(tb.tryAcquire(0, 1.0)) << "token " << i;
    EXPECT_FALSE(tb.tryAcquire(0, 1.0));
    // 1000/s == one token per millisecond.
    EXPECT_TRUE(tb.tryAcquire(kTicksPerMs, 1.0));
    EXPECT_FALSE(tb.tryAcquire(kTicksPerMs, 1.0));
}

TEST(TokenBucketTest, RefillClampsAtBurst)
{
    TokenBucket tb(1000.0, 4.0);
    tb.reset(0);
    EXPECT_NEAR(tb.available(100 * kTicksPerSec), 4.0, 1e-9);
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited)
{
    // No rate configured: callers skip the bucket and admit everything.
    EXPECT_TRUE(TokenBucket(0.0, 32.0).unlimited());
    EXPECT_TRUE(TokenBucket(-5.0, 32.0).unlimited());
    EXPECT_FALSE(TokenBucket(100.0, 32.0).unlimited());
}

TEST(TokenBucketTest, ReserveOrderingProtectsHighPriority)
{
    const AdmissionPolicy pol = policyWith(16, 100.0, 32.0);
    const double user = qosTokenReserve(pol, QosClass::UserFacing);
    const double batch = qosTokenReserve(pol, QosClass::Batch);
    const double best = qosTokenReserve(pol, QosClass::BestEffort);
    EXPECT_LT(user, batch);
    EXPECT_LT(batch, best);
    EXPECT_DOUBLE_EQ(user, 1.0); // user-facing may take the last token

    // Drain the bucket to just above one token: only user-facing
    // still gets through.
    TokenBucket tb(100.0, 32.0);
    tb.reset(0);
    while (tb.available(0) >= best)
        tb.tryAcquire(0, 1.0);
    EXPECT_FALSE(tb.tryAcquire(0, best));
    EXPECT_TRUE(tb.tryAcquire(0, user));
}

TEST(AdmissionQueueTest, WeightedRoundRobinOrder)
{
    AdmissionPolicy pol = policyWith(64);
    pol.weights = {2, 1, 1};
    AdmissionQueue<int> q(4096);
    q.install(pol, 0);
    for (int i = 0; i < 4; ++i)
        q.push(QosClass::UserFacing, 100 + i);
    for (int i = 0; i < 2; ++i)
        q.push(QosClass::Batch, 200 + i);
    for (int i = 0; i < 2; ++i)
        q.push(QosClass::BestEffort, 300 + i);

    // Per grant cycle: 2 user, 1 batch, 1 best-effort, FIFO within a
    // class.
    const int expect[] = {100, 101, 200, 300, 102, 103, 201, 301};
    for (int want : expect) {
        QosClass cls;
        int item = 0;
        ASSERT_TRUE(q.pop(cls, item));
        EXPECT_EQ(item, want);
    }
    QosClass cls;
    int item = 0;
    EXPECT_FALSE(q.pop(cls, item));
}

TEST(AdmissionQueueTest, IdleBypassSpendsTheSameCredit)
{
    // One server fed a mixed-class stream. Queue `fast` lets an
    // arrival that finds it empty and the server idle skip the queue
    // (bypass); queue `slow` pushes and pops every arrival. Both must
    // serve the same sequence: a bypass spends the WRR credit the
    // round trip would have.
    AdmissionPolicy pol = policyWith(1024);
    pol.weights = {2, 1, 1};
    AdmissionQueue<int> fast(4096), slow(4096);
    fast.install(pol, 0);
    slow.install(pol, 0);
    bool fast_busy = false, slow_busy = false;
    std::vector<int> fast_order, slow_order;
    unsigned bypasses = 0;
    Rng rng(77);
    int next = 0;
    for (int step = 0; step < 4000; ++step) {
        // Alternate busy phases, where a backlog builds, and quiet
        // ones, where the server idles and arrivals find it so.
        const double p_arrive = (step / 100) % 2 ? 0.65 : 0.2;
        if (rng.uniform01() < p_arrive) {
            const auto cls = static_cast<QosClass>(rng.uniformInt(3));
            const int item = next++;
            if (fast.empty() && !fast_busy) {
                fast.bypass(cls);
                fast_order.push_back(item);
                fast_busy = true;
                ++bypasses;
            } else {
                fast.push(cls, item);
            }
            slow.push(cls, item);
            QosClass c;
            int out = 0;
            if (!slow_busy && slow.pop(c, out)) {
                slow_order.push_back(out);
                slow_busy = true;
            }
        } else {
            // The server finishes its job and takes the next one.
            QosClass c;
            int out = 0;
            fast_busy = fast.pop(c, out);
            if (fast_busy)
                fast_order.push_back(out);
            slow_busy = slow.pop(c, out);
            if (slow_busy)
                slow_order.push_back(out);
        }
    }
    EXPECT_GT(bypasses, 100u);
    EXPECT_GT(fast_order.size(), bypasses + 100);
    EXPECT_EQ(fast_order, slow_order);
}

TEST(AdmissionQueueTest, ShedsLowPriorityFirst)
{
    // cap 16: best-effort sheds at total >= 4, batch at >= 8,
    // user-facing only at >= 16.
    const AdmissionPolicy pol = policyWith(16);
    AdmissionQueue<int> q(4096);
    q.install(pol, 0);
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(q.offer(QosClass::BestEffort, 0),
                  AdmissionVerdict::Admit);
        q.push(QosClass::BestEffort, i);
    }
    EXPECT_EQ(q.offer(QosClass::BestEffort, 0), AdmissionVerdict::Shed);
    EXPECT_EQ(q.offer(QosClass::Batch, 0), AdmissionVerdict::Admit);
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(q.offer(QosClass::Batch, 0), AdmissionVerdict::Admit);
        q.push(QosClass::Batch, i);
    }
    EXPECT_EQ(q.offer(QosClass::Batch, 0), AdmissionVerdict::Shed);
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(q.offer(QosClass::UserFacing, 0),
                  AdmissionVerdict::Admit);
        q.push(QosClass::UserFacing, i);
    }
    // Aggregate backlog reached the full bound: now even user-facing
    // work is refused.
    EXPECT_EQ(q.offer(QosClass::UserFacing, 0), AdmissionVerdict::Shed);
}

TEST(AdmissionQueueTest, PerClassBoundOverflows)
{
    const AdmissionPolicy pol = policyWith(4);
    AdmissionQueue<int> q(4096);
    q.install(pol, 0);
    // Fill the batch class directly (bypassing offer) to its bound:
    // the next batch offer is a hard Overflow, checked before the
    // shed thresholds.
    for (int i = 0; i < 4; ++i)
        q.push(QosClass::Batch, i);
    EXPECT_EQ(q.offer(QosClass::Batch, 0), AdmissionVerdict::Overflow);
    EXPECT_EQ(q.length(QosClass::Batch), 4u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.offer(QosClass::Batch, 0), AdmissionVerdict::Admit);
}

TEST(AdmissionQueueTest, FallbackCapacityInheritsTier)
{
    const AdmissionPolicy inherit = policyWith(0);
    AdmissionQueue<int> q(128);
    q.install(inherit, 0);
    EXPECT_EQ(q.capacity(), 128u);
    const AdmissionPolicy own = policyWith(16);
    AdmissionQueue<int> q2(128);
    q2.install(own, 0);
    EXPECT_EQ(q2.capacity(), 16u);
}

// ---- closed-form: M/M/1/K blocking probability ----------------------

/** M/M/1/K blocking probability (Erlang loss chain). */
double
mm1kBlocking(double rho, unsigned K)
{
    return (1.0 - rho) * std::pow(rho, K) /
           (1.0 - std::pow(rho, K + 1));
}

struct Mm1kResult
{
    std::uint64_t offered = 0;
    std::uint64_t blocked = 0;
};

/**
 * Drive the AdmissionQueue as the waiting room of an M/M/1/K station:
 * one server, K-1 waiting slots, blocked arrivals counted. Every
 * admission decision goes through offer(), so the measured blocking
 * probability is emergent.
 */
Mm1kResult
simulateMm1k(std::uint64_t seed, double meanServiceTicks, double rho,
             unsigned K, std::uint64_t arrivals)
{
    const double meanInterarrival = meanServiceTicks / rho;
    Simulator sim;
    Rng rng(seed);

    const AdmissionPolicy pol = policyWith(K - 1);
    AdmissionQueue<Tick> waiting(4096);
    waiting.install(pol, 0);
    bool busy = false;
    Mm1kResult r;
    std::uint64_t generated = 0;

    std::function<void()> startService = [&] {
        busy = true;
        sim.schedule(
            static_cast<Tick>(rng.exponential(meanServiceTicks)) + 1,
            [&] {
                QosClass cls;
                Tick arrived = 0;
                if (waiting.pop(cls, arrived))
                    startService();
                else
                    busy = false;
            });
    };

    std::function<void()> arrive = [&] {
        if (generated < arrivals) {
            ++generated;
            sim.schedule(
                static_cast<Tick>(rng.exponential(meanInterarrival)) + 1,
                arrive);
            ++r.offered;
            if (!busy) {
                startService();
            } else if (waiting.offer(QosClass::UserFacing, sim.now()) ==
                       AdmissionVerdict::Admit) {
                waiting.push(QosClass::UserFacing, sim.now());
            } else {
                ++r.blocked;
            }
        }
    };

    sim.schedule(0, arrive);
    sim.run();
    return r;
}

TEST(AdmissionClosedFormTest, Mm1kBlockingMatchesChiSquare)
{
    const double rho = 0.8;
    const unsigned K = 5;
    const double meanService = 100.0 * kTicksPerUs;
    const std::uint64_t arrivals = 200000;
    const double pK = mm1kBlocking(rho, K);

    for (std::uint64_t seed : {9001ull, 9002ull, 9003ull}) {
        const Mm1kResult r =
            simulateMm1k(seed, meanService, rho, K, arrivals);
        ASSERT_EQ(r.offered, arrivals);
        const double expBlocked = pK * static_cast<double>(arrivals);
        const double expAdmitted =
            (1.0 - pK) * static_cast<double>(arrivals);
        const double dB =
            static_cast<double>(r.blocked) - expBlocked;
        const double dA =
            static_cast<double>(arrivals - r.blocked) - expAdmitted;
        // Pearson chi-square over (blocked, admitted), 1 dof. The
        // 0.001 critical value is 10.83; exceeding it would mean the
        // bounded queue does not follow the Erlang loss chain.
        const double chi2 =
            dB * dB / expBlocked + dA * dA / expAdmitted;
        EXPECT_LT(chi2, 10.83)
            << "seed=" << seed << " blocked=" << r.blocked
            << " expected=" << expBlocked;
    }
}

// ---- closed-form: 2-class non-preemptive priority -------------------

struct PriorityResult
{
    double meanWaitHigh = 0.0; // queueing delay, ticks
    double meanWaitLow = 0.0;
};

/**
 * Two Poisson classes, one server, exponential service, lopsided WRR
 * weights (10000:1): between grant cycles this is exact head-of-line
 * priority, so the measured mean waits must match the non-preemptive
 * M/M/1 priority formulas.
 */
PriorityResult
simulatePriority(std::uint64_t seed, double meanServiceTicks,
                 double rhoHigh, double rhoLow, std::uint64_t jobs)
{
    Simulator sim;
    Rng rng(seed);

    AdmissionPolicy pol = policyWith(1u << 20);
    pol.weights = {10000, 1, 1};
    AdmissionQueue<Tick> waiting(4096);
    waiting.install(pol, 0);

    const double rho = rhoHigh + rhoLow;
    const double meanInterarrival = meanServiceTicks / rho;
    const double pHigh = rhoHigh / rho;
    const std::uint64_t warmup = jobs / 5;

    bool busy = false;
    std::uint64_t generated = 0, completedJobs = 0;
    double sumWait[2] = {0.0, 0.0};
    std::uint64_t measured[2] = {0, 0};

    // @p waited is the queueing delay this job saw before its service
    // began (0 when it found the server idle).
    std::function<void(QosClass, Tick)> startService =
        [&](QosClass cls, Tick waited) {
            busy = true;
            sim.schedule(
                static_cast<Tick>(rng.exponential(meanServiceTicks)) + 1,
                [&, cls, waited] {
                    ++completedJobs;
                    if (completedJobs > warmup) {
                        const std::size_t k =
                            cls == QosClass::UserFacing ? 0 : 1;
                        sumWait[k] += static_cast<double>(waited);
                        ++measured[k];
                    }
                    QosClass next;
                    Tick next_arrived = 0;
                    if (waiting.pop(next, next_arrived))
                        startService(
                            next,
                            static_cast<Tick>(sim.now() - next_arrived));
                    else
                        busy = false;
                });
        };

    std::function<void()> arrive = [&] {
        if (generated < jobs + warmup + jobs / 5) {
            ++generated;
            sim.schedule(
                static_cast<Tick>(rng.exponential(meanInterarrival)) + 1,
                arrive);
            const QosClass cls = rng.uniform01() < pHigh
                                     ? QosClass::UserFacing
                                     : QosClass::Batch;
            if (!busy)
                startService(cls, 0); // no wait
            else
                waiting.push(cls, sim.now());
        }
    };

    sim.schedule(0, arrive);
    sim.run();

    PriorityResult r;
    r.meanWaitHigh = sumWait[0] / static_cast<double>(measured[0]);
    r.meanWaitLow = sumWait[1] / static_cast<double>(measured[1]);
    return r;
}

TEST(AdmissionClosedFormTest, PriorityMeanWaitsMatchClosedForm)
{
    const double meanService = 100.0 * kTicksPerUs;
    const double rho1 = 0.35, rho2 = 0.35, rho = rho1 + rho2;
    // Non-preemptive M/M/1 priority with a common service rate:
    //   E[R]   = rho / mu          (mean residual service at arrival)
    //   Wq_hi  = E[R] / (1 - rho1)
    //   Wq_lo  = E[R] / ((1 - rho1) (1 - rho))
    const double residual = rho * meanService;
    const double expHigh = residual / (1.0 - rho1);
    const double expLow = residual / ((1.0 - rho1) * (1.0 - rho));

    for (std::uint64_t seed : {9101ull, 9102ull, 9103ull}) {
        const PriorityResult r =
            simulatePriority(seed, meanService, rho1, rho2, 150000);
        EXPECT_NEAR(r.meanWaitHigh, expHigh, 0.08 * expHigh)
            << "seed=" << seed;
        EXPECT_NEAR(r.meanWaitLow, expLow, 0.08 * expLow)
            << "seed=" << seed;
        EXPECT_LT(r.meanWaitHigh, r.meanWaitLow);
        // Work conservation: the class-weighted waits must add up to
        // the FCFS M/M/1 value (Kleinrock's conservation law).
        const double fcfs = residual / (1.0 - rho);
        const double conserved =
            (rho1 * r.meanWaitHigh + rho2 * r.meanWaitLow) / rho;
        EXPECT_NEAR(conserved, fcfs, 0.08 * fcfs) << "seed=" << seed;
    }
}

} // namespace
} // namespace uqsim::service
