/**
 * @file
 * Offline trace analysis: the queries the paper runs over its tracing
 * database to produce Figs 3, 15 and the Sec 7 latency breakdowns,
 * plus per-trace critical-path breakdowns for the Perfetto export.
 */

#ifndef UQSIM_TRACE_ANALYSIS_HH
#define UQSIM_TRACE_ANALYSIS_HH

#include <map>
#include <string>
#include <vector>

#include "core/quantile_sketch.hh"
#include "trace/collector.hh"
#include "trace/span.hh"

namespace uqsim::trace {

/** Aggregated per-service view over a set of traces. */
struct ServiceSummary
{
    std::string service;
    std::uint64_t spanCount = 0;
    double meanLatencyUs = 0.0;
    std::uint64_t p99LatencyNs = 0;
    /** Mean share of span time spent in network processing [0,1]. */
    double networkShare = 0.0;
    /** Mean share in application compute [0,1]. */
    double appShare = 0.0;
    /** Mean share queued for a worker thread [0,1]. */
    double queueShare = 0.0;
    /** Mean share blocked on downstream RPCs [0,1]. */
    double downstreamShare = 0.0;
    /** Mean absolute network processing time per span (ns). */
    double meanNetworkNs = 0.0;
    /** Mean absolute application time per span (ns). */
    double meanAppNs = 0.0;
};

/**
 * Per-service critical-path attribution with per-hop component
 * breakdown, averaged over traces (all values ns/trace).
 */
struct CriticalPathEntry
{
    std::string service;
    /** Exclusive (critical-path) time charged to this service. */
    double exclusiveNs = 0.0;
    /** Time its spans spent waiting for a worker thread. */
    double queueNs = 0.0;
    /** Time in handler computation. */
    double appNs = 0.0;
    /** Time in network processing (TCP, serialization, NIC, wire). */
    double networkNs = 0.0;
    /** Time blocked on downstream RPCs. */
    double downstreamNs = 0.0;
};

/** One RPC hop of a single trace, with exclusive-time attribution. */
struct TraceHop
{
    Span span;
    /** Span duration minus time covered by its children (clamped). */
    Tick exclusiveNs = 0;
    /** Depth below the root span (root = 0). */
    unsigned depth = 0;
};

/**
 * Analysis over a TraceStore.
 */
class TraceAnalysis
{
  public:
    explicit TraceAnalysis(const TraceStore &store) : store_(store) {}

    /** Per-service summary, ordered by service name. */
    std::vector<ServiceSummary> perService() const;

    /** Summary restricted to one service. */
    ServiceSummary forService(const std::string &service) const;

    /**
     * End-to-end network-processing share: for each trace, total
     * network time across spans / end-to-end (root span) latency;
     * returns the mean across traces. This is Fig 3's red fraction.
     */
    double endToEndNetworkShare() const;

    /** Sketch of root-span (end-to-end) latencies. */
    QuantileSketch endToEndLatency() const;

    /**
     * Critical-path service attribution: charges each span its
     * exclusive time (duration minus children, clamped at zero for
     * overlapping fan-outs); returns mean ns charged per service.
     */
    std::map<std::string, double> criticalPath() const;

    /**
     * criticalPath() extended with per-hop queue/app/network/
     * downstream attribution, ordered by exclusive time descending.
     */
    std::vector<CriticalPathEntry> criticalPathBreakdown() const;

    /**
     * The hops of one trace with exclusive-time and depth
     * attribution, ordered by (start, spanId) — a request's life,
     * ready to print or export.
     */
    std::vector<TraceHop> traceBreakdown(TraceId id) const;

  private:
    ServiceSummary summarize(const std::string &name,
                             const std::vector<std::size_t> &idxs) const;

    const TraceStore &store_;
};

} // namespace uqsim::trace

#endif // UQSIM_TRACE_ANALYSIS_HH
