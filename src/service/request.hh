/**
 * @file
 * End-to-end request state shared across all RPC hops of one user
 * request, and the pooled frame it lives in.
 */

#ifndef UQSIM_SERVICE_REQUEST_HH
#define UQSIM_SERVICE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/frame_pool.hh"
#include "core/types.hh"
#include "service/admission.hh"
#include "trace/span.hh"

namespace uqsim::service {

/**
 * One end-to-end user request flowing through a service graph.
 *
 * The request object travels (by RequestRef, see RequestFrame) through
 * every hop and accumulates the global accounting the experiments
 * need: total time attributable to network processing vs application
 * compute, and cycles by execution mode.
 */
struct Request
{
    /** Monotonic request id within the App. */
    std::uint64_t id = 0;

    /** Index into the App's query-type table. */
    unsigned queryType = 0;

    /** Originating user (drives skew and shard selection). */
    std::uint64_t userId = 0;

    /** Injection time at the client. */
    Tick injectTime = 0;

    /** Completion time at the client (0 while in flight). */
    Tick completeTime = 0;

    /** True if any tier dropped the request (queue overflow / limits). */
    bool dropped = false;

    /**
     * Absolute end-to-end deadline (0 = none). Propagated down the
     * call chain: every hop admission-checks against it, so work is
     * never queued for a request whose caller has already given up.
     */
    Tick deadline = 0;

    /**
     * Terminal failure of the *end-to-end* request (a trace::SpanStatus
     * value; 0 while healthy). Set when the entry-level RPC fails after
     * resilience is exhausted.
     */
    std::uint8_t failStatus = 0;

    /** RPC attempts beyond the first, summed over all hops. */
    std::uint32_t retries = 0;

    /**
     * Total time spent processing network requests on behalf of this
     * request across all hops: kernel TCP work, (de)serialization,
     * NIC queueing and wire time. Parallel branches sum, so this is
     * "work time", not wall time.
     */
    Tick networkTime = 0;

    /** Total handler compute (incl. I/O wait) across all hops. */
    Tick appTime = 0;

    /**
     * Subset of networkTime spent in kernel TCP processing (or, with
     * the offload, in the residual host interaction + FPGA pipeline).
     * This is the quantity Fig 16 reports a 10-68x improvement on.
     */
    Tick tcpProcTime = 0;

    /** Pure wire/switch propagation across all hops (not "work"). */
    Tick wireTime = 0;

    /** Total time queued for worker threads across all hops. */
    Tick queueTime = 0;

    /**
     * Most recent data key sampled for this request (keyed cache
     * stages; 0 until the first keyed access). Observability only:
     * routing passes the key explicitly through the RPC path, because
     * this object is shared by every concurrent hop of the request.
     */
    std::uint64_t dataKey = 0;

    /**
     * Outcome of the most recent keyed store access performed on a
     * *remote* shard of a partitioned world: 0 = none, 1 = miss,
     * 2 = hit. The delta merge keeps it on the attempt's own frame;
     * the reply's receive step writes it here in the event that
     * settles the attempt, and the caller's cache-stage continuation
     * reads it in that same event, so a concurrent sibling's reply
     * cannot overwrite it first.
     */
    std::uint8_t remoteHit = 0;

    /** Distributed-tracing id (0 when tracing is off). */
    trace::TraceId traceId = 0;

    /** End-to-end latency; valid after completion. */
    Tick
    latency() const
    {
        return completeTime >= injectTime ? completeTime - injectTime : 0;
    }
};

/**
 * A Request in its App's FramePool: every injected request, and every
 * home-shard twin of a cross-shard call. Like the App's other frames
 * it belongs to one shard, so its reference count is plain.
 */
struct RequestFrame : PooledFrame<RequestFrame>, Request
{
};

inline void
retainFrame(RequestFrame *frame) noexcept
{
    ++frame->refs;
}

inline void
releaseFrame(RequestFrame *frame) noexcept
{
    if (--frame->refs == 0)
        frame->pool->recycle(frame);
}

using RequestRef = FrameRef<RequestFrame>;

/**
 * A query type of an end-to-end application (Sec 3.8, "query
 * diversity"): e.g. composePost with text vs video media, or
 * placeOrder vs browseCatalogue. Types modulate compute and payload
 * along the same graph, and can enable tagged handler stages.
 */
struct QueryType
{
    /** Name for reporting ("composePost-video"). */
    std::string name = "default";

    /** Relative frequency in the generated mix. */
    double weight = 1.0;

    /** Multiplier on every compute stage's cycles. */
    double computeScale = 1.0;

    /** Extra payload bytes carried on every hop (embedded media). */
    Bytes extraPayloadBytes = 0;

    /**
     * Tags enabling optional handler stages: a stage with a non-empty
     * onlyForTag runs only when that tag is in this set.
     */
    std::vector<std::string> tags;

    /**
     * Admission-control priority class. Only consulted when the App's
     * QoS subsystem is enabled; the default keeps every query
     * user-facing.
     */
    QosClass qosClass = QosClass::UserFacing;

    /** @return true if @p tag is in this query's tag set. */
    bool
    hasTag(const std::string &tag) const
    {
        for (const auto &t : tags)
            if (t == tag)
                return true;
        return false;
    }
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_REQUEST_HH
