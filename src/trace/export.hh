/**
 * @file
 * JSON exports of collected traces.
 *
 * Two renderings of a TraceStore:
 *  - Zipkin v2 span arrays, as the paper's tracing system stores spans
 *    "similarly to the Zipkin collector" (inspect with Zipkin UI,
 *    jaeger, or plain jq);
 *  - Chrome trace_event JSON, which https://ui.perfetto.dev opens
 *    directly: each trace becomes a process, each service a named
 *    thread, and each span a complete ("X") event carrying its
 *    queue/app/network/downstream breakdown in args.
 */

#ifndef UQSIM_TRACE_EXPORT_HH
#define UQSIM_TRACE_EXPORT_HH

#include <ostream>
#include <string>

#include "trace/collector.hh"

namespace uqsim::trace {

/**
 * Render up to @p max_spans spans as a Zipkin v2 JSON array.
 * Timestamps and durations are microseconds, as Zipkin expects.
 * @param store     span source
 * @param os        destination stream
 * @param max_spans cap on exported spans (0 = all)
 */
void exportZipkinJson(const TraceStore &store, std::ostream &os,
                      std::size_t max_spans = 0);

/** Convenience wrapper returning a string. */
std::string toZipkinJson(const TraceStore &store,
                         std::size_t max_spans = 0);

/**
 * Render up to @p max_spans spans as Chrome trace_event JSON for
 * ui.perfetto.dev / chrome://tracing. Timestamps are microseconds.
 * Includes process/thread metadata so traces and services are
 * labelled, and a trailing record of the store's eviction accounting.
 *
 * @p extra_events, when non-empty, is appended verbatim inside the
 * traceEvents array: a comma-separated sequence of complete JSON
 * event objects with no leading or trailing comma. This is how the
 * obs layer adds its counter ("ph":"C") tracks without the trace
 * library depending on it.
 */
void exportPerfettoJson(const TraceStore &store, std::ostream &os,
                        std::size_t max_spans = 0,
                        const std::string &extra_events = {});

/** Convenience wrapper returning a string. */
std::string toPerfettoJson(const TraceStore &store,
                           std::size_t max_spans = 0,
                           const std::string &extra_events = {});

/**
 * Render a whole run as one JSON object: the simulator's execution
 * digest (see ParallelSimulator::executionDigest()) plus the span array. The
 * digest field lets an exported trace assert which exact event
 * sequence produced it, so archived traces are re-checkable.
 */
void exportRunJson(const TraceStore &store,
                   std::uint64_t execution_digest, std::ostream &os,
                   std::size_t max_spans = 0);

/** Convenience wrapper returning a string. */
std::string toRunJson(const TraceStore &store,
                      std::uint64_t execution_digest,
                      std::size_t max_spans = 0);

} // namespace uqsim::trace

#endif // UQSIM_TRACE_EXPORT_HH
