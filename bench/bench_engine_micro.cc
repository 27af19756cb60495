/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event queue throughput, RNG draws, latency-sketch recording, and
 * end-to-end cost per simulated request on the Social Network graph.
 *
 * The global operator new is replaced by a counting one
 * (tests/counting_new.hh), so BM_SocialNetworkRequest reports its
 * heap allocations per request.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "apps/social_network.hh"
#include "core/quantile_sketch.hh"
#include "core/rng.hh"
#include "core/simulator.hh"
#include "counting_new.hh"
#include "workload/generators.hh"

using namespace uqsim;

namespace {

/**
 * The original scheduler, kept as an in-bench baseline: a binary heap
 * of entries with one shared_ptr cancellation state allocated per
 * event. Used to quantify EventQueue's speedup on identical workloads
 * (BM_EventChurn_* below; the _Ladder rows keep the name they were
 * recorded under in BENCH_engine.json).
 */
class BaselineHeapQueue
{
  public:
    struct State
    {
        bool cancelled = false;
    };
    using Handle = std::shared_ptr<State>;

    Handle
    schedule(Tick when, EventCallback cb)
    {
        auto state = std::make_shared<State>();
        heap_.push_back(Entry{when, nextSeq_++, std::move(cb), state});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        ++live_;
        return state;
    }

    void
    cancel(const Handle &h)
    {
        if (h && !h->cancelled) {
            h->cancelled = true;
            --live_;
        }
    }

    bool empty() const { return live_ == 0; }

    void
    runNext(Tick &now)
    {
        // The callback is move-only: pop it to the back, then move it.
        while (true) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            if (!heap_.back().state->cancelled)
                break;
            heap_.pop_back();
        }
        Entry entry = std::move(heap_.back());
        heap_.pop_back();
        --live_;
        now = entry.when;
        entry.cb();
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventCallback cb;
        std::shared_ptr<State> state;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t live_ = 0;
};

/** Adapter giving EventQueue the same driver surface as the baseline. */
class EventQueueDriver
{
  public:
    template <typename F>
    EventHandle
    schedule(Tick when, F &&cb)
    {
        return queue_.schedule(when, std::forward<F>(cb));
    }

    void cancel(EventHandle &h) { h.cancel(); }
    bool empty() const { return queue_.empty(); }
    void runNext(Tick &now) { queue_.runNext(now); }

  private:
    EventQueue queue_;
};

/**
 * Steady-state churn: keep @p depth events in flight; every pop
 * schedules a successor a short exponential-ish delay ahead, the DES
 * pattern every service/network model produces. Executes @p events
 * events total.
 */
template <class Queue>
void
runChurn(Queue &q, std::uint64_t events, unsigned depth, Rng &rng)
{
    Tick now = 0;
    for (unsigned i = 0; i < depth; ++i)
        q.schedule(1 + rng.uniformInt(2000), [] {});
    for (std::uint64_t done = 0; done < events; ++done) {
        q.runNext(now);
        q.schedule(now + 1 + rng.uniformInt(2000), [] {});
    }
}

/** Churn with one extra schedule+cancel per pop (timeout pattern). */
template <class Queue>
void
runChurnCancel(Queue &q, std::uint64_t events, unsigned depth, Rng &rng)
{
    Tick now = 0;
    for (unsigned i = 0; i < depth; ++i)
        q.schedule(1 + rng.uniformInt(2000), [] {});
    for (std::uint64_t done = 0; done < events; ++done) {
        q.runNext(now);
        q.schedule(now + 1 + rng.uniformInt(2000), [] {});
        auto timeout = q.schedule(now + 5000 + rng.uniformInt(5000), [] {});
        q.cancel(timeout);
    }
}

constexpr std::uint64_t kChurnEvents = 1'000'000;
constexpr unsigned kChurnDepth = 4096;

} // namespace

static void
BM_EventChurn_Ladder(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueueDriver q;
        Rng rng(11);
        runChurn(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurn_Ladder)->Unit(benchmark::kMillisecond);

static void
BM_EventChurn_HeapBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        BaselineHeapQueue q;
        Rng rng(11);
        runChurn(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurn_HeapBaseline)->Unit(benchmark::kMillisecond);

static void
BM_EventChurnCancel_Ladder(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueueDriver q;
        Rng rng(13);
        runChurnCancel(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurnCancel_Ladder)->Unit(benchmark::kMillisecond);

static void
BM_EventChurnCancel_HeapBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        BaselineHeapQueue q;
        Rng rng(13);
        runChurnCancel(q, kChurnEvents, kChurnDepth, rng);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurnCancel_HeapBaseline)->Unit(benchmark::kMillisecond);

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(static_cast<Tick>(i * 7 % 500), [] {});
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(1);
    double sink = 0.0;
    for (auto _ : state)
        sink += rng.exponential(100.0);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

static void
BM_QuantileSketchRecord(benchmark::State &state)
{
    QuantileSketch h;
    Rng rng(2);
    for (auto _ : state)
        h.record(static_cast<std::uint64_t>(rng.exponential(1e6)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileSketchRecord);

static void
BM_QuantileSketchQuantile(benchmark::State &state)
{
    QuantileSketch h;
    Rng rng(3);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<std::uint64_t>(rng.exponential(1e6)));
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += h.p99();
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_QuantileSketchQuantile);

static void
BM_SocialNetworkRequest(benchmark::State &state)
{
    // Cost of one fully simulated end-to-end request through the
    // 36-service graph (events, RPC hops, tracing).
    apps::WorldConfig c;
    c.workerServers = 5;
    apps::World w(c);
    apps::buildSocialNetwork(w);
    workload::QueryMix mix = workload::QueryMix::fromApp(*w.app);
    workload::UserPopulation users = workload::UserPopulation::uniform(100);
    Rng rng(7);
    const std::uint64_t allocs0 = countedAllocations();
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        w.app->inject(mix.sample(rng), users.sample(rng));
        w.ctx.run();
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    const auto requests = static_cast<double>(state.iterations());
    const auto events = static_cast<double>(w.ctx.eventsExecuted());
    state.SetItemsProcessed(state.iterations());
    state.counters["events/req"] = benchmark::Counter(events / requests);
    state.counters["allocs_per_request"] = benchmark::Counter(
        static_cast<double>(countedAllocations() - allocs0) / requests);
    state.counters["ns_per_event"] =
        benchmark::Counter(elapsed.count() / events);
}
BENCHMARK(BM_SocialNetworkRequest);
