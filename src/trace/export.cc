#include "trace/export.hh"

#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/types.hh"

namespace uqsim::trace {

namespace {

/** Zipkin ids are lower-case hex strings. */
std::string
hexId(std::uint64_t id)
{
    std::ostringstream oss;
    oss << std::hex << std::setw(16) << std::setfill('0') << id;
    return oss.str();
}

const std::string &
spanService(const TraceStore &store, const Span &sp)
{
    static const std::string unknown = "?";
    return sp.service == kNoService ? unknown
                                    : store.serviceName(sp.service);
}

/**
 * QoS class tag value. Mirrors service::qosClassName without a
 * dependency cycle (trace cannot include service); class 0 is
 * user-facing, which is also the legacy default and never emitted.
 */
const char *
qosClassTag(std::uint8_t cls)
{
    switch (cls) {
    case 1:
        return "batch";
    case 2:
        return "best-effort";
    default:
        return "user-facing";
    }
}

void
emitSpan(std::ostream &os, const TraceStore &store, const Span &sp)
{
    const std::string &service = spanService(store, sp);
    os << "{\"traceId\":\"" << hexId(sp.traceId) << "\""
       << ",\"id\":\"" << hexId(sp.spanId) << "\"";
    if (sp.parentSpanId != kNoParent)
        os << ",\"parentId\":\"" << hexId(sp.parentSpanId) << "\"";
    os << ",\"name\":\"" << service << "\""
       << ",\"timestamp\":" << ticksToUs(sp.start)
       << ",\"duration\":" << ticksToUs(sp.duration())
       << ",\"localEndpoint\":{\"serviceName\":\"" << service << "\"}"
       << ",\"tags\":{"
       << "\"instance\":\"" << sp.instance << "\""
       << ",\"queryType\":\"" << sp.queryType << "\""
       << ",\"queueUs\":\"" << ticksToUs(sp.queueTime) << "\""
       << ",\"appUs\":\"" << ticksToUs(sp.appTime) << "\""
       << ",\"networkUs\":\"" << ticksToUs(sp.networkTime) << "\"";
    if (sp.failed())
        os << ",\"error\":\"" << spanStatusName(sp.statusEnum()) << "\"";
    if (sp.attempt > 1)
        os << ",\"attempt\":\"" << unsigned{sp.attempt} << "\"";
    // Keyed-data accounting: zero on non-keyed runs, so legacy
    // exports stay byte-identical.
    if (sp.dataHits > 0)
        os << ",\"dataHits\":\"" << unsigned{sp.dataHits} << "\"";
    if (sp.dataMisses > 0)
        os << ",\"dataMisses\":\"" << unsigned{sp.dataMisses} << "\"";
    if (sp.qosClass > 0)
        os << ",\"qosClass\":\"" << qosClassTag(sp.qosClass) << "\"";
    os << "}}";
}

} // namespace

void
exportZipkinJson(const TraceStore &store, std::ostream &os,
                 std::size_t max_spans)
{
    const auto spans = store.spans();
    const std::size_t n = max_spans == 0
                              ? spans.size()
                              : std::min(max_spans, spans.size());
    os << "[";
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            os << ",\n ";
        emitSpan(os, store, spans[i]);
    }
    os << "]\n";
}

std::string
toZipkinJson(const TraceStore &store, std::size_t max_spans)
{
    std::ostringstream oss;
    exportZipkinJson(store, oss, max_spans);
    return oss.str();
}

void
exportPerfettoJson(const TraceStore &store, std::ostream &os,
                   std::size_t max_spans,
                   const std::string &extra_events)
{
    const auto spans = store.spans();
    const std::size_t n = max_spans == 0
                              ? spans.size()
                              : std::min(max_spans, spans.size());

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n ";
    };

    // Metadata first: label each trace (process) and each service
    // track (thread) so Perfetto's timeline reads naturally.
    std::set<TraceId> traces_seen;
    std::set<std::pair<TraceId, ServiceId>> tracks_seen;
    for (std::size_t i = 0; i < n; ++i) {
        const Span sp = spans[i];
        if (traces_seen.insert(sp.traceId).second) {
            sep();
            os << "{\"ph\":\"M\",\"pid\":" << sp.traceId
               << ",\"name\":\"process_name\",\"args\":{\"name\":"
               << "\"trace " << hexId(sp.traceId) << "\"}}";
        }
        if (tracks_seen.insert({sp.traceId, sp.service}).second) {
            sep();
            // tid 0 is reserved; shift interned ids up by one.
            os << "{\"ph\":\"M\",\"pid\":" << sp.traceId
               << ",\"tid\":" << sp.service + 1
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
               << spanService(store, sp) << "\"}}";
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const Span sp = spans[i];
        sep();
        // Failed hops go to a distinct category so a Perfetto query
        // (or the UI's category filter) isolates them at a glance.
        os << "{\"ph\":\"X\",\"pid\":" << sp.traceId
           << ",\"tid\":" << sp.service + 1 << ",\"cat\":\""
           << (sp.failed() ? "rpc.error" : "rpc") << "\""
           << ",\"name\":\"" << spanService(store, sp) << "\""
           << ",\"ts\":" << ticksToUs(sp.start)
           << ",\"dur\":" << ticksToUs(sp.duration())
           << ",\"args\":{"
           << "\"spanId\":\"" << hexId(sp.spanId) << "\""
           << ",\"parentId\":\"" << hexId(sp.parentSpanId) << "\""
           << ",\"instance\":" << sp.instance
           << ",\"queryType\":" << sp.queryType
           << ",\"queueUs\":" << ticksToUs(sp.queueTime)
           << ",\"appUs\":" << ticksToUs(sp.appTime)
           << ",\"networkUs\":" << ticksToUs(sp.networkTime)
           << ",\"downstreamUs\":" << ticksToUs(sp.downstreamWait);
        if (sp.failed())
            os << ",\"status\":\"" << spanStatusName(sp.statusEnum())
               << "\"";
        if (sp.attempt > 1)
            os << ",\"attempt\":" << unsigned{sp.attempt};
        if (sp.dataHits > 0)
            os << ",\"dataHits\":" << unsigned{sp.dataHits};
        if (sp.dataMisses > 0)
            os << ",\"dataMisses\":" << unsigned{sp.dataMisses};
        if (sp.qosClass > 0)
            os << ",\"qosClass\":\"" << qosClassTag(sp.qosClass)
               << "\"";
        os << "}}";
    }
    if (!extra_events.empty()) {
        sep();
        os << extra_events;
    }
    os << "\n],\"otherData\":{"
       << "\"spansStored\":" << store.size()
       << ",\"spansInserted\":" << store.inserted()
       << ",\"spansEvicted\":" << store.evicted()
       << ",\"capacity\":" << store.capacity() << "}}\n";
}

std::string
toPerfettoJson(const TraceStore &store, std::size_t max_spans,
               const std::string &extra_events)
{
    std::ostringstream oss;
    exportPerfettoJson(store, oss, max_spans, extra_events);
    return oss.str();
}

void
exportRunJson(const TraceStore &store, std::uint64_t execution_digest,
              std::ostream &os, std::size_t max_spans)
{
    os << "{\"executionDigest\":\"" << hexId(execution_digest)
       << "\",\"spans\":";
    exportZipkinJson(store, os, max_spans);
    os << "}\n";
}

std::string
toRunJson(const TraceStore &store, std::uint64_t execution_digest,
          std::size_t max_spans)
{
    std::ostringstream oss;
    exportRunJson(store, execution_digest, oss, max_spans);
    return oss.str();
}

} // namespace uqsim::trace
