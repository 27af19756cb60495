/**
 * @file
 * Trace collection and centralized storage.
 *
 * The Collector plays the role of the Zipkin-style collector in the
 * paper; the TraceStore is the centralized Cassandra database. Both
 * are in-process here, but the interface keeps the same separation so
 * analysis code only ever talks to the store.
 *
 * The store is built for *always-on* tracing: a fixed-capacity ring
 * of 64-byte span records with interned service names, so recording a
 * span on the simulator's hottest path (every RPC hop) writes one
 * cache line and never allocates once the ring has reached its
 * capacity. When full, the oldest spans are overwritten and counted,
 * so analysis always knows what it is missing.
 */

#ifndef UQSIM_TRACE_COLLECTOR_HH
#define UQSIM_TRACE_COLLECTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.hh"
#include "trace/span.hh"

namespace uqsim::trace {

/**
 * Centralized span storage: a bounded ring of compact span records
 * with interned service names and lazily rebuilt per-trace /
 * per-service indices.
 *
 * Spans are addressed by position in [0, size()), oldest first, and
 * read back by value: the store keeps each span in its own record
 * format, which only this class knows. Any insert may shift positions
 * (on eviction) and invalidates the index references returned by
 * byService().
 *
 * Layout. The ring is a table of fixed blocks of kBlockRecords 64-byte
 * records. A block is allocated when the ring first reaches it, is
 * never zero-filled and never moves; clear() keeps the blocks, so a
 * store refilled after a clear allocates nothing. A record keeps the
 * three ids and the start tick at 64 bits, the duration and the four
 * component times at 32 bits, the service, instance and query type at
 * 16 bits, and the five byte fields. A span whose values do not fit
 * (a time of 2^32 ns or more, an end before its start, a service,
 * instance or query type of 0xffff or more) is *wide*: its record is
 * flagged and the whole span is kept in a side table keyed by the
 * slot, until that slot is overwritten. Every stored value reads back
 * exactly.
 */
class TraceStore
{
  public:
    /** Default ring capacity (spans); 16 MiB of records when full. */
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    /** Allocates nothing: blocks come with the first inserts. */
    explicit TraceStore(std::size_t capacity = kDefaultCapacity);

    // -- Service-name interning ---------------------------------------

    /** Intern @p name, returning its stable id (idempotent). */
    ServiceId intern(const std::string &name);

    /** Id of an already-interned name, or kNoService. */
    ServiceId serviceId(const std::string &name) const;

    /** Name behind an interned id (fatal on invalid id). */
    const std::string &serviceName(ServiceId id) const;

    // -- Span storage -------------------------------------------------

    /** Persist one span, evicting the oldest when at capacity. */
    void insert(const Span &span);

    /** Span at position @p i in [0, size()), oldest first. */
    Span at(std::size_t i) const;

    /** Lightweight random-access view over the stored spans. */
    class SpanView
    {
      public:
        /** Yields spans by value: no stored Span exists to point at. */
        class iterator
        {
          public:
            using value_type = Span;
            using difference_type = std::ptrdiff_t;

            iterator(const TraceStore *store, std::size_t pos)
                : store_(store), pos_(pos)
            {}
            Span operator*() const { return store_->at(pos_); }
            iterator &operator++()
            {
                ++pos_;
                return *this;
            }
            bool operator!=(const iterator &o) const
            {
                return pos_ != o.pos_;
            }
            bool operator==(const iterator &o) const
            {
                return pos_ == o.pos_;
            }

          private:
            const TraceStore *store_;
            std::size_t pos_;
        };

        explicit SpanView(const TraceStore &store) : store_(&store) {}
        std::size_t size() const { return store_->size(); }
        bool empty() const { return size() == 0; }
        Span operator[](std::size_t i) const { return store_->at(i); }
        iterator begin() const { return iterator(store_, 0); }
        iterator end() const { return iterator(store_, size()); }

      private:
        const TraceStore *store_;
    };

    /** All stored spans, oldest first. */
    SpanView spans() const { return SpanView(*this); }

    /** Spans belonging to one end-to-end request (copies). */
    std::vector<Span> byTrace(TraceId id) const;

    /**
     * Positions of spans served by one microservice. Valid until the
     * next insert/clear/setCapacity.
     */
    const std::vector<std::size_t> &byService(const std::string &svc) const;
    const std::vector<std::size_t> &byService(ServiceId id) const;

    /** Sorted names of services with at least one stored span. */
    std::vector<std::string> services() const;

    /** Spans currently stored. */
    std::size_t size() const { return size_; }

    /** Ring capacity (maximum stored spans). */
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the ring capacity. Shrinking keeps the newest spans and
     * counts the discarded ones as evicted, and frees the blocks past
     * the new capacity. On a shrink or a wrapped ring the kept records
     * are rotated in place to start at the first slot. Fatal on zero.
     */
    void setCapacity(std::size_t capacity);

    /** Spans overwritten (or discarded by a shrink) since clear(). */
    std::uint64_t evicted() const { return evicted_; }

    /** Total spans ever inserted since clear(). */
    std::uint64_t inserted() const { return inserted_; }

    /** Stored spans too wide for a record, kept in the side table. */
    std::size_t wideSpans() const { return wide_.size(); }

    /** Drop all spans and counters; interned names and blocks survive. */
    void clear();

  private:
    /** One stored span: a cache line (see the class comment). */
    struct alignas(64) Record
    {
        TraceId traceId;
        SpanId spanId;
        SpanId parentSpanId;
        Tick start;
        std::uint32_t duration;
        std::uint32_t queueTime;
        std::uint32_t appTime;
        std::uint32_t networkTime;
        std::uint32_t downstreamWait;
        std::uint16_t service;
        std::uint16_t instance;
        std::uint16_t queryType;
        std::uint8_t status;
        std::uint8_t attempt;
        std::uint8_t dataHits;
        std::uint8_t dataMisses;
        std::uint8_t qosClass;
        /** Non-zero: the span lives in wide_ under this record's slot. */
        std::uint8_t wide;
    };
    static_assert(sizeof(Record) <= 64, "a span record is one cache line");

    static constexpr unsigned kBlockBits = 14;
    /** Records per block (1 MiB). */
    static constexpr std::size_t kBlockRecords = std::size_t(1)
                                                 << kBlockBits;

    Record &record(std::size_t slot)
    {
        return blocks_[slot >> kBlockBits][slot & (kBlockRecords - 1)];
    }
    const Record &record(std::size_t slot) const
    {
        return blocks_[slot >> kBlockBits][slot & (kBlockRecords - 1)];
    }

    void rebuildIndices() const;

    std::size_t capacity_;
    /** Blocks of slots [b * kBlockRecords, (b + 1) * kBlockRecords). */
    std::vector<std::unique_ptr<Record[]>> blocks_;
    /** Full spans of the flagged records, by slot. */
    std::unordered_map<std::size_t, Span> wide_;
    std::size_t size_ = 0;
    /** Slot of the oldest span; non-zero only once the ring is full. */
    std::size_t head_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t inserted_ = 0;

    std::vector<std::string> names_;
    std::unordered_map<std::string, ServiceId> idByName_;

    mutable bool indexDirty_ = false;
    mutable std::unordered_map<TraceId, std::vector<std::size_t>> byTrace_;
    mutable std::vector<std::vector<std::size_t>> byService_;
    std::vector<std::size_t> empty_;
};

/**
 * Receives spans from the tracing modules and forwards them to the
 * store. Sampling is *trace-coherent*: the keep/drop decision is a
 * deterministic hash of the trace id, so a sampled store only ever
 * holds complete traces (we sample records, not behaviour; the
 * simulation itself is unaffected either way).
 */
class Collector
{
  public:
    explicit Collector(TraceStore &store) : store_(store) {}

    /**
     * Set sampling: keep one in @p n *traces* (1 = keep all). All
     * spans of a kept trace are stored; all spans of a dropped trace
     * are discarded.
     */
    void setSampleEvery(std::uint64_t n) { sampleEvery_ = n ? n : 1; }
    std::uint64_t sampleEvery() const { return sampleEvery_; }

    /** Enable/disable collection entirely. */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Whether spans of @p id survive the sampling decision. */
    bool sampled(TraceId id) const;

    /** Ingest one finished span. */
    void collect(const Span &span);

    /** Spans offered (including sampled-out and disabled periods). */
    std::uint64_t offered() const { return offered_->value(); }

    /** Spans discarded by the sampling decision. */
    std::uint64_t sampledOut() const { return sampledOut_->value(); }

    /** Spans forwarded to the store. */
    std::uint64_t stored() const { return stored_->value(); }

    /**
     * Report through @p metrics instead of private counters
     * (trace.spans_offered / trace.spans_sampled_out /
     * trace.spans_stored); current values carry over.
     */
    void bindMetrics(MetricsRegistry &metrics);

  private:
    TraceStore &store_;
    bool enabled_ = true;
    std::uint64_t sampleEvery_ = 1;

    Counter ownOffered_, ownSampledOut_, ownStored_;
    Counter *offered_ = &ownOffered_;
    Counter *sampledOut_ = &ownSampledOut_;
    Counter *stored_ = &ownStored_;
};

/** Allocates trace and span ids deterministically. */
class IdAllocator
{
  public:
    TraceId nextTrace() { return ++lastTrace_; }
    SpanId nextSpan() { return ++lastSpan_; }

  private:
    TraceId lastTrace_ = 0;
    SpanId lastSpan_ = 0;
};

} // namespace uqsim::trace

#endif // UQSIM_TRACE_COLLECTOR_HH
