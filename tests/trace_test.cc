/**
 * @file
 * Tests for the distributed-tracing store, collector and analysis:
 * ring-buffer storage and eviction, service-name interning, the
 * compact record store against the span ring it replaced,
 * trace-coherent sampling and critical-path attribution.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "core/metrics.hh"
#include "core/rng.hh"
#include "trace/analysis.hh"
#include "trace/collector.hh"

namespace uqsim::trace {
namespace {

Span
makeSpan(TraceStore &store, TraceId trace, SpanId id, SpanId parent,
         const std::string &svc, Tick start, Tick end, Tick net = 0,
         Tick app = 0)
{
    Span s;
    s.traceId = trace;
    s.spanId = id;
    s.parentSpanId = parent;
    s.service = store.intern(svc);
    s.start = start;
    s.end = end;
    s.networkTime = net;
    s.appTime = app;
    return s;
}

TEST(TraceStoreTest, InsertAndIndex)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 10, kNoParent, "front", 0, 100));
    store.insert(makeSpan(store, 1, 11, 10, "back", 10, 60));
    store.insert(makeSpan(store, 2, 12, kNoParent, "front", 0, 50));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.byTrace(1).size(), 2u);
    EXPECT_EQ(store.byTrace(2).size(), 1u);
    EXPECT_EQ(store.byService("front").size(), 2u);
    EXPECT_EQ(store.byService("missing").size(), 0u);
    EXPECT_EQ(store.services(), (std::vector<std::string>{"back", "front"}));
}

TEST(TraceStoreTest, InterningIsIdempotentAndStable)
{
    TraceStore store;
    const ServiceId a = store.intern("alpha");
    const ServiceId b = store.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(store.intern("alpha"), a);
    EXPECT_EQ(store.serviceId("alpha"), a);
    EXPECT_EQ(store.serviceId("unknown"), kNoService);
    EXPECT_EQ(store.serviceName(a), "alpha");
    EXPECT_EQ(store.serviceName(b), "beta");
}

TEST(TraceStoreTest, ClearEmptiesEverything)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(store.byTrace(1).empty());
    EXPECT_EQ(store.evicted(), 0u);
    EXPECT_EQ(store.inserted(), 0u);
    // Interned names survive a clear; recording code caches the ids.
    EXPECT_EQ(store.serviceId("svc"), 0u);
}

TEST(TraceStoreTest, RingWrapKeepsNewestSpans)
{
    TraceStore store(4);
    for (SpanId id = 1; id <= 6; ++id)
        store.insert(makeSpan(store, id, id, kNoParent, "svc",
                              id * 100, id * 100 + 10));
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.capacity(), 4u);
    EXPECT_EQ(store.inserted(), 6u);
    EXPECT_EQ(store.evicted(), 2u);
    // Oldest-first order over the survivors: spans 3..6.
    for (std::size_t i = 0; i < store.size(); ++i)
        EXPECT_EQ(store.at(i).spanId, i + 3);
}

TEST(TraceStoreTest, IndicesConsistentAfterEviction)
{
    TraceStore store(4);
    for (SpanId id = 1; id <= 7; ++id)
        store.insert(makeSpan(store, /*trace=*/id % 2, id, kNoParent,
                              id % 2 ? "odd" : "even", 0, 10));
    // Survivors are spans 4..7: traces {0: 4,6} and {1: 5,7}.
    const auto even_trace = store.byTrace(0);
    ASSERT_EQ(even_trace.size(), 2u);
    EXPECT_EQ(even_trace[0].spanId, 4u);
    EXPECT_EQ(even_trace[1].spanId, 6u);
    EXPECT_EQ(store.byTrace(1).size(), 2u);
    EXPECT_EQ(store.byService("odd").size(), 2u);
    EXPECT_EQ(store.byService("even").size(), 2u);
    // Index positions must dereference to spans of the right service.
    for (std::size_t pos : store.byService("odd"))
        EXPECT_EQ(store.serviceName(store.at(pos).service), "odd");
}

TEST(TraceStoreTest, WideSpansRoundTripAndLeaveWithTheirSlot)
{
    TraceStore store(2);
    Span wide =
        makeSpan(store, 1, 1, kNoParent, "svc", 5, 5 + (Tick(1) << 32));
    wide.instance = 70000;
    store.insert(wide);
    store.insert(makeSpan(store, 1, 2, 1, "svc", 10, 20));
    EXPECT_EQ(store.wideSpans(), 1u);
    EXPECT_EQ(store.at(0).end, wide.end);
    EXPECT_EQ(store.at(0).instance, 70000u);
    EXPECT_EQ(store.at(1).end, 20u);
    // Overwriting the wide span's slot drops it from the side table.
    store.insert(makeSpan(store, 1, 3, 1, "svc", 30, 40));
    EXPECT_EQ(store.wideSpans(), 0u);
    EXPECT_EQ(store.at(1).spanId, 3u);
}

// -- differential store test --------------------------------------------

/**
 * The store TraceStore replaced: a std::vector<Span> ring that grows by
 * push_back up to its capacity and overwrites its oldest span once
 * full. The same positions and counters; no interning.
 */
class ReferenceTraceStore
{
  public:
    explicit ReferenceTraceStore(std::size_t capacity)
        : capacity_(capacity)
    {}

    void
    insert(const Span &span)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(span);
        } else {
            ring_[head_] = span;
            head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
            ++evicted_;
        }
        ++inserted_;
    }

    const Span &
    at(std::size_t i) const
    {
        const std::size_t pos = head_ + i;
        return ring_[pos < ring_.size() ? pos : pos - ring_.size()];
    }

    void
    clear()
    {
        ring_.clear();
        head_ = 0;
        evicted_ = 0;
        inserted_ = 0;
    }

    std::size_t size() const { return ring_.size(); }
    std::uint64_t evicted() const { return evicted_; }
    std::uint64_t inserted() const { return inserted_; }

  private:
    const std::size_t capacity_;
    std::vector<Span> ring_;
    std::size_t head_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t inserted_ = 0;
};

bool
sameSpan(const Span &a, const Span &b)
{
    return a.traceId == b.traceId && a.spanId == b.spanId &&
           a.parentSpanId == b.parentSpanId && a.service == b.service &&
           a.instance == b.instance && a.queryType == b.queryType &&
           a.start == b.start && a.end == b.end &&
           a.queueTime == b.queueTime && a.appTime == b.appTime &&
           a.networkTime == b.networkTime &&
           a.downstreamWait == b.downstreamWait && a.status == b.status &&
           a.attempt == b.attempt && a.dataHits == b.dataHits &&
           a.dataMisses == b.dataMisses && a.qosClass == b.qosClass;
}

/**
 * Whether @p s fits a compact record, written from the record layout:
 * 32-bit duration and component times, 16-bit service (0xffff is
 * kNoService's code), instance and query type.
 */
bool
fitsCompactRecord(const Span &s)
{
    constexpr Tick k2to32 = Tick(1) << 32;
    return s.end >= s.start && s.end - s.start < k2to32 &&
           s.queueTime < k2to32 && s.appTime < k2to32 &&
           s.networkTime < k2to32 && s.downstreamWait < k2to32 &&
           (s.service < 0xffff || s.service == kNoService) &&
           s.instance < 0xffff && s.queryType < 0xffff;
}

/** Random span; one in three draws its values from the edges. */
Span
randomSpan(Rng &rng, ServiceId services)
{
    static constexpr Tick kTimeEdges[] = {
        0, 1, (Tick(1) << 32) - 1, Tick(1) << 32, Tick(1) << 63, kMaxTick};
    static constexpr std::uint64_t kIndexEdges[] = {
        0, 0xfffe, 0xffff, 70000, 0xffffffffu};
    const auto time = [&rng](bool edge) {
        return edge ? kTimeEdges[rng.uniformInt(std::size(kTimeEdges))]
                    : rng.uniformInt(1u << 20);
    };
    const auto index = [&rng](bool edge) {
        return static_cast<unsigned>(
            edge ? kIndexEdges[rng.uniformInt(std::size(kIndexEdges))]
                 : rng.uniformInt(40));
    };
    const bool edge = rng.uniformInt(3) == 0;
    Span s;
    s.traceId = edge ? rng.next() : 1 + rng.uniformInt(24);
    s.spanId = rng.next() >> rng.uniformInt(64);
    s.parentSpanId = rng.uniformInt(4) == 0 ? kNoParent : rng.next();
    s.start = edge && rng.uniformInt(2) ? time(true)
                                         : rng.uniformInt(Tick(1) << 40);
    s.end = rng.uniformInt(8) == 0 ? s.start - 1 - rng.uniformInt(100)
                                   : s.start + time(edge && rng.uniformInt(2));
    s.queueTime = time(edge && rng.uniformInt(3) == 0);
    s.appTime = time(edge && rng.uniformInt(3) == 0);
    s.networkTime = time(edge && rng.uniformInt(3) == 0);
    s.downstreamWait = time(edge && rng.uniformInt(3) == 0);
    const std::uint64_t svc = rng.uniformInt(services + 5);
    s.service = svc < services       ? static_cast<ServiceId>(svc)
                : svc == services     ? kNoService
                                      : index(true);
    s.instance = index(edge && rng.uniformInt(2));
    s.queryType = index(edge && rng.uniformInt(2));
    s.status = static_cast<std::uint8_t>(rng.next());
    s.attempt = static_cast<std::uint8_t>(rng.next());
    s.dataHits = static_cast<std::uint8_t>(rng.next());
    s.dataMisses = static_cast<std::uint8_t>(rng.next());
    s.qosClass = static_cast<std::uint8_t>(rng.next());
    return s;
}

/**
 * Compare @p store with @p ref: counters, every position, the wide
 * count, byTrace for a few stored traces and one absent, and byService
 * for every interned id and the edge ids. @p compared counts the spans
 * compared.
 */
::testing::AssertionResult
sameContents(const TraceStore &store, const ReferenceTraceStore &ref,
             Rng &rng, std::uint64_t &compared)
{
    if (store.size() != ref.size() || store.evicted() != ref.evicted() ||
        store.inserted() != ref.inserted())
        return ::testing::AssertionFailure()
               << "size/evicted/inserted " << store.size() << "/"
               << store.evicted() << "/" << store.inserted() << " against "
               << ref.size() << "/" << ref.evicted() << "/"
               << ref.inserted();
    std::size_t wide = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!sameSpan(store.at(i), ref.at(i)))
            return ::testing::AssertionFailure() << "position " << i;
        wide += !fitsCompactRecord(ref.at(i));
        ++compared;
    }
    if (store.wideSpans() != wide)
        return ::testing::AssertionFailure()
               << store.wideSpans() << " wide spans, expected " << wide;

    std::vector<TraceId> traces = {rng.next()};
    for (int k = 0; k < 3 && ref.size() > 0; ++k)
        traces.push_back(ref.at(rng.uniformInt(ref.size())).traceId);
    for (const TraceId id : traces) {
        const std::vector<Span> got = store.byTrace(id);
        std::size_t n = 0;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (ref.at(i).traceId != id)
                continue;
            if (n >= got.size() || !sameSpan(got[n], ref.at(i)))
                return ::testing::AssertionFailure() << "byTrace " << id;
            ++n;
            ++compared;
        }
        if (n != got.size())
            return ::testing::AssertionFailure() << "byTrace size " << id;
    }

    // Only interned ids are indexed; every other id finds nothing.
    std::map<ServiceId, std::vector<std::size_t>> want;
    for (const ServiceId id : {kNoService, ServiceId{0xfffe},
                               ServiceId{0xffff}, ServiceId{70000}})
        want[id];
    for (ServiceId id = 0; id < 40; ++id)
        want[id];
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const ServiceId id = ref.at(i).service;
        auto it = want.find(id);
        if (it != want.end() && id != kNoService &&
            store.serviceId(strCat("s", id)) == id)
            it->second.push_back(i);
    }
    for (const auto &[id, positions] : want) {
        if (store.byService(id) != positions)
            return ::testing::AssertionFailure() << "byService " << id;
        compared += positions.size();
    }
    return ::testing::AssertionSuccess();
}

/**
 * Drives TraceStore and ReferenceTraceStore with the same random
 * streams of inserts and clears, and checks after every step that they
 * hold the same spans: edge values (times at 2^32 - 1, 2^32 and 2^63,
 * an end before its start, 64-bit ids, kNoService, services, instances
 * and query types at 0xfffe, 0xffff and 70,000) round-trip exactly,
 * and exactly the spans that do not fit a record are wide.
 *
 * Small rings (capacity 1-48) insert one span per step; rings of up
 * to 50,000 spans, across block boundaries, insert bursts of up to
 * twice their capacity per step. One set of streams interns 70,001
 * names, so that the edge services are indexed too.
 */
TEST(TraceStoreTest, CompactStoreMatchesSpanRingReference)
{
    std::uint64_t compared = 0, wrappedSteps = 0, wideSeen = 0;
    const auto run = [&](std::uint64_t seed, ServiceId services,
                         std::size_t maxCapacity, int steps, bool bursts) {
        Rng rng(seed);
        const std::size_t capacity = 1 + rng.uniformInt(maxCapacity);
        TraceStore store(capacity);
        ReferenceTraceStore ref(capacity);
        for (ServiceId id = 0; id < services; ++id)
            store.intern(strCat("s", id));
        for (int step = 0; step < steps; ++step) {
            if (rng.uniformInt(100) < 97) {
                const std::size_t n =
                    bursts ? 1 + rng.uniformInt(2 * maxCapacity) : 1;
                for (std::size_t k = 0; k < n; ++k) {
                    const Span sp =
                        randomSpan(rng, std::min<ServiceId>(services, 40));
                    store.insert(sp);
                    ref.insert(sp);
                }
            } else {
                store.clear();
                ref.clear();
            }
            wrappedSteps += ref.evicted() > 0;
            wideSeen += store.wideSpans();
            ASSERT_TRUE(sameContents(store, ref, rng, compared))
                << "seed " << seed << " step " << step;
        }
    };
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        run(seed, 40, 48, 300, false);
    for (std::uint64_t seed = 301; seed <= 306; ++seed)
        run(seed, 40, 50000, 14, true);
    // Block edges: 16384 records per block.
    for (std::uint64_t seed = 307; seed <= 310; ++seed)
        run(seed, 40, 16385, 14, true);
    for (std::uint64_t seed = 311; seed <= 315; ++seed)
        run(seed, 70001, 24, 40, false);
    // The streams reach every path they are meant to compare.
    EXPECT_GT(wrappedSteps, 10000u);
    EXPECT_GT(wideSeen, 1000u);
    EXPECT_GT(compared, 1000000u);
    RecordProperty("spans_compared", std::to_string(compared));
}

TEST(CollectorTest, DisabledDropsSpans)
{
    TraceStore store;
    Collector c(store);
    c.setEnabled(false);
    c.collect(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(c.offered(), 1u);
    EXPECT_EQ(c.stored(), 0u);
}

TEST(CollectorTest, SamplingIsTraceCoherent)
{
    TraceStore store;
    Collector c(store);
    c.setSampleEvery(4);
    // Three spans per trace, many traces: every stored trace must be
    // complete — sampling drops whole traces, never individual spans.
    const int kTraces = 256, kSpansPerTrace = 3;
    SpanId next_span = 1;
    for (TraceId t = 1; t <= kTraces; ++t)
        for (int i = 0; i < kSpansPerTrace; ++i)
            c.collect(makeSpan(store, t, next_span++, kNoParent, "svc",
                               0, 10));

    std::set<TraceId> kept;
    for (const Span &s : store.spans()) {
        kept.insert(s.traceId);
        EXPECT_TRUE(c.sampled(s.traceId));
    }
    for (TraceId t : kept)
        EXPECT_EQ(store.byTrace(t).size(),
                  static_cast<std::size_t>(kSpansPerTrace));
    // The hash keeps roughly 1-in-4 traces; exact count is
    // deterministic, so pin a sane band rather than an exact value.
    EXPECT_GT(kept.size(), kTraces / 8u);
    EXPECT_LT(kept.size(), kTraces / 2u);
    EXPECT_EQ(c.offered(), kTraces * kSpansPerTrace);
    EXPECT_EQ(c.stored(), kept.size() * kSpansPerTrace);
    EXPECT_EQ(c.sampledOut(), c.offered() - c.stored());
}

TEST(CollectorTest, SampleEveryOneKeepsEverything)
{
    TraceStore store;
    Collector c(store);
    c.setSampleEvery(1);
    for (TraceId t = 1; t <= 50; ++t)
        c.collect(makeSpan(store, t, t, kNoParent, "svc", 0, 10));
    EXPECT_EQ(store.size(), 50u);
    EXPECT_EQ(c.sampledOut(), 0u);
}

TEST(CollectorTest, BindMetricsCarriesValuesOver)
{
    TraceStore store;
    Collector c(store);
    c.collect(makeSpan(store, 1, 1, kNoParent, "svc", 0, 10));

    MetricsRegistry metrics;
    c.bindMetrics(metrics);
    EXPECT_EQ(metrics.counter("trace.spans_offered").value(), 1u);
    c.collect(makeSpan(store, 2, 2, kNoParent, "svc", 0, 10));
    EXPECT_EQ(metrics.counter("trace.spans_offered").value(), 2u);
    EXPECT_EQ(c.offered(), 2u);
    EXPECT_EQ(metrics.counter("trace.spans_stored").value(), c.stored());
}

TEST(TraceAnalysisTest, PerServiceSummary)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 1, kNoParent, "a", 0, 100, 25, 50));
    store.insert(makeSpan(store, 2, 2, kNoParent, "a", 0, 200, 50, 100));
    TraceAnalysis ta(store);
    const auto s = ta.forService("a");
    EXPECT_EQ(s.spanCount, 2u);
    EXPECT_NEAR(s.networkShare, 0.25, 1e-9);
    EXPECT_NEAR(s.appShare, 0.5, 1e-9);
    EXPECT_NEAR(s.meanLatencyUs, 0.15, 1e-6); // (100+200)/2 ns
}

TEST(TraceAnalysisTest, EndToEndNetworkShare)
{
    TraceStore store;
    // Root of trace 1: 1000ns long; total network across spans 300ns.
    store.insert(makeSpan(store, 1, 1, kNoParent, "client", 0, 1000, 100, 0));
    store.insert(makeSpan(store, 1, 2, 1, "svc", 100, 800, 200, 400));
    TraceAnalysis ta(store);
    EXPECT_NEAR(ta.endToEndNetworkShare(), 0.3, 1e-9);
}

TEST(TraceAnalysisTest, EndToEndLatencyUsesRootsOnly)
{
    TraceStore store;
    store.insert(makeSpan(store, 1, 1, kNoParent, "client", 0, 5000));
    store.insert(makeSpan(store, 1, 2, 1, "svc", 0, 4000));
    store.insert(makeSpan(store, 2, 3, kNoParent, "client", 0, 7000));
    TraceAnalysis ta(store);
    const auto h = ta.endToEndLatency();
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GE(h.max(), 7000u);
}

TEST(TraceAnalysisTest, CriticalPathExclusiveTimes)
{
    TraceStore store;
    // parent [0,1000], child [200,700]: parent exclusive 500, child 500.
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 200, 700));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 500.0, 1e-9);
    EXPECT_NEAR(cp.at("child"), 500.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathSequentialChildren)
{
    TraceStore store;
    // parent [0,1000] with back-to-back children [100,400] and
    // [500,900]: parent keeps only the gaps (100+100+100).
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 100, 400));
    store.insert(makeSpan(store, 1, 3, 1, "child", 500, 900));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 300.0, 1e-9);
    EXPECT_NEAR(cp.at("child"), 700.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathClampsOverlappingChildren)
{
    TraceStore store;
    // Parallel children whose summed duration exceeds the parent.
    store.insert(makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000));
    store.insert(makeSpan(store, 1, 2, 1, "child", 0, 900));
    store.insert(makeSpan(store, 1, 3, 1, "child", 0, 900));
    TraceAnalysis ta(store);
    const auto cp = ta.criticalPath();
    EXPECT_NEAR(cp.at("parent"), 0.0, 1e-9); // fully covered
    EXPECT_NEAR(cp.at("child"), 1800.0, 1e-9);
}

TEST(TraceAnalysisTest, CriticalPathBreakdownComponents)
{
    TraceStore store;
    Span parent =
        makeSpan(store, 1, 1, kNoParent, "parent", 0, 1000, 100, 200);
    parent.queueTime = 50;
    parent.downstreamWait = 500;
    store.insert(parent);
    store.insert(makeSpan(store, 1, 2, 1, "child", 200, 700, 30, 400));

    TraceAnalysis ta(store);
    const auto bd = ta.criticalPathBreakdown();
    ASSERT_EQ(bd.size(), 2u);
    // Ordered by exclusive time descending: both are 500 here, so the
    // tie breaks by name.
    EXPECT_EQ(bd[0].service, "child");
    EXPECT_NEAR(bd[0].exclusiveNs, 500.0, 1e-9);
    EXPECT_NEAR(bd[0].appNs, 400.0, 1e-9);
    EXPECT_NEAR(bd[0].networkNs, 30.0, 1e-9);
    EXPECT_EQ(bd[1].service, "parent");
    EXPECT_NEAR(bd[1].exclusiveNs, 500.0, 1e-9);
    EXPECT_NEAR(bd[1].queueNs, 50.0, 1e-9);
    EXPECT_NEAR(bd[1].appNs, 200.0, 1e-9);
    EXPECT_NEAR(bd[1].networkNs, 100.0, 1e-9);
    EXPECT_NEAR(bd[1].downstreamNs, 500.0, 1e-9);
}

TEST(TraceAnalysisTest, TraceBreakdownDepthsAndOrder)
{
    TraceStore store;
    store.insert(makeSpan(store, 7, 1, kNoParent, "root", 0, 1000));
    store.insert(makeSpan(store, 7, 2, 1, "mid", 100, 900));
    store.insert(makeSpan(store, 7, 3, 2, "leaf", 200, 600));
    // A different trace must not leak into the breakdown.
    store.insert(makeSpan(store, 8, 4, kNoParent, "root", 0, 500));

    TraceAnalysis ta(store);
    const auto hops = ta.traceBreakdown(7);
    ASSERT_EQ(hops.size(), 3u);
    EXPECT_EQ(hops[0].span.spanId, 1u);
    EXPECT_EQ(hops[0].depth, 0u);
    EXPECT_EQ(hops[0].exclusiveNs, 200u); // 1000 - mid's 800
    EXPECT_EQ(hops[1].span.spanId, 2u);
    EXPECT_EQ(hops[1].depth, 1u);
    EXPECT_EQ(hops[1].exclusiveNs, 400u); // 800 - leaf's 400
    EXPECT_EQ(hops[2].depth, 2u);
    EXPECT_EQ(hops[2].exclusiveNs, 400u);
    EXPECT_TRUE(ta.traceBreakdown(99).empty());
}

TEST(IdAllocatorTest, MonotonicIds)
{
    IdAllocator ids;
    const TraceId t1 = ids.nextTrace();
    const TraceId t2 = ids.nextTrace();
    EXPECT_LT(t1, t2);
    const SpanId s1 = ids.nextSpan();
    const SpanId s2 = ids.nextSpan();
    EXPECT_LT(s1, s2);
}

} // namespace
} // namespace uqsim::trace
