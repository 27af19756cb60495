#include "trace/analysis.hh"

#include <algorithm>
#include <unordered_map>

namespace uqsim::trace {

ServiceSummary
TraceAnalysis::summarize(const std::string &name,
                         const std::vector<std::size_t> &idxs) const
{
    ServiceSummary s;
    s.service = name;
    if (idxs.empty())
        return s;

    QuantileSketch lat;
    double net_share = 0.0, app_share = 0.0, queue_share = 0.0,
           down_share = 0.0;
    double net_ns = 0.0, app_ns = 0.0, mean_us = 0.0;
    for (std::size_t idx : idxs) {
        const Span sp = store_.at(idx);
        const double dur =
            std::max<double>(1.0, static_cast<double>(sp.duration()));
        lat.record(sp.duration());
        net_share += static_cast<double>(sp.networkTime) / dur;
        app_share += static_cast<double>(sp.appTime) / dur;
        queue_share += static_cast<double>(sp.queueTime) / dur;
        down_share += static_cast<double>(sp.downstreamWait) / dur;
        net_ns += static_cast<double>(sp.networkTime);
        app_ns += static_cast<double>(sp.appTime);
        mean_us += ticksToUs(sp.duration());
    }
    const double n = static_cast<double>(idxs.size());
    s.spanCount = idxs.size();
    s.meanLatencyUs = mean_us / n;
    s.p99LatencyNs = lat.p99();
    s.networkShare = std::min(1.0, net_share / n);
    s.appShare = std::min(1.0, app_share / n);
    s.queueShare = std::min(1.0, queue_share / n);
    s.downstreamShare = std::min(1.0, down_share / n);
    s.meanNetworkNs = net_ns / n;
    s.meanAppNs = app_ns / n;
    return s;
}

std::vector<ServiceSummary>
TraceAnalysis::perService() const
{
    std::vector<ServiceSummary> out;
    for (const auto &name : store_.services())
        out.push_back(summarize(name, store_.byService(name)));
    return out;
}

ServiceSummary
TraceAnalysis::forService(const std::string &service) const
{
    return summarize(service, store_.byService(service));
}

double
TraceAnalysis::endToEndNetworkShare() const
{
    // Group spans by trace, find the root, and compare the sum of
    // network time across the trace with the root duration.
    std::unordered_map<TraceId, double> net_by_trace;
    std::unordered_map<TraceId, double> root_dur;
    for (const Span sp : store_.spans()) {
        net_by_trace[sp.traceId] += static_cast<double>(sp.networkTime);
        if (sp.parentSpanId == kNoParent)
            root_dur[sp.traceId] = std::max<double>(
                1.0, static_cast<double>(sp.duration()));
    }
    if (root_dur.empty())
        return 0.0;
    double total = 0.0;
    std::size_t n = 0;
    for (const auto &[trace, dur] : root_dur) {
        auto it = net_by_trace.find(trace);
        if (it == net_by_trace.end())
            continue;
        total += std::min(1.0, it->second / dur);
        ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

QuantileSketch
TraceAnalysis::endToEndLatency() const
{
    QuantileSketch h;
    for (const Span sp : store_.spans())
        if (sp.parentSpanId == kNoParent)
            h.record(sp.duration());
    return h;
}

std::map<std::string, double>
TraceAnalysis::criticalPath() const
{
    std::map<std::string, double> out;
    for (const CriticalPathEntry &e : criticalPathBreakdown())
        out[e.service] = e.exclusiveNs;
    return out;
}

std::vector<CriticalPathEntry>
TraceAnalysis::criticalPathBreakdown() const
{
    // Exclusive-time attribution: each span is charged its duration
    // minus the time covered by its children (clamped at zero for
    // parallel fan-outs whose children overlap the parent fully),
    // with the span's own component accounting riding along.
    std::unordered_map<SpanId, Tick> child_time;
    for (const Span sp : store_.spans())
        if (sp.parentSpanId != kNoParent)
            child_time[sp.parentSpanId] += sp.duration();

    std::map<std::string, CriticalPathEntry> by_service;
    std::size_t n_traces = 0;
    for (const Span sp : store_.spans()) {
        if (sp.parentSpanId == kNoParent)
            ++n_traces;
        auto ct = child_time.find(sp.spanId);
        const Tick children = ct == child_time.end() ? 0 : ct->second;
        const Tick exclusive =
            sp.duration() > children ? sp.duration() - children : 0;
        const std::string &name = sp.service == kNoService
                                      ? std::string("?")
                                      : store_.serviceName(sp.service);
        CriticalPathEntry &e = by_service[name];
        e.service = name;
        e.exclusiveNs += static_cast<double>(exclusive);
        e.queueNs += static_cast<double>(sp.queueTime);
        e.appNs += static_cast<double>(sp.appTime);
        e.networkNs += static_cast<double>(sp.networkTime);
        e.downstreamNs += static_cast<double>(sp.downstreamWait);
    }

    std::vector<CriticalPathEntry> out;
    out.reserve(by_service.size());
    for (auto &[name, e] : by_service) {
        if (n_traces > 0) {
            const double n = static_cast<double>(n_traces);
            e.exclusiveNs /= n;
            e.queueNs /= n;
            e.appNs /= n;
            e.networkNs /= n;
            e.downstreamNs /= n;
        }
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const CriticalPathEntry &a, const CriticalPathEntry &b) {
                  if (a.exclusiveNs != b.exclusiveNs)
                      return a.exclusiveNs > b.exclusiveNs;
                  return a.service < b.service;
              });
    return out;
}

std::vector<TraceHop>
TraceAnalysis::traceBreakdown(TraceId id) const
{
    const std::vector<Span> spans = store_.byTrace(id);

    std::unordered_map<SpanId, Tick> child_time;
    std::unordered_map<SpanId, SpanId> parent_of;
    for (const Span &sp : spans) {
        parent_of[sp.spanId] = sp.parentSpanId;
        if (sp.parentSpanId != kNoParent)
            child_time[sp.parentSpanId] += sp.duration();
    }

    std::vector<TraceHop> out;
    out.reserve(spans.size());
    for (const Span &sp : spans) {
        TraceHop hop;
        hop.span = sp;
        auto ct = child_time.find(sp.spanId);
        const Tick children = ct == child_time.end() ? 0 : ct->second;
        hop.exclusiveNs =
            sp.duration() > children ? sp.duration() - children : 0;
        // Walk up to the root; a missing parent (evicted or sampled
        // out) terminates the walk, as does a cycle guard.
        SpanId cur = sp.parentSpanId;
        while (cur != kNoParent && hop.depth <= spans.size()) {
            auto it = parent_of.find(cur);
            if (it == parent_of.end())
                break;
            ++hop.depth;
            cur = it->second;
        }
        out.push_back(hop);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceHop &a, const TraceHop &b) {
                  if (a.span.start != b.span.start)
                      return a.span.start < b.span.start;
                  return a.span.spanId < b.span.spanId;
              });
    return out;
}

} // namespace uqsim::trace
