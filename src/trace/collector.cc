#include "trace/collector.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim::trace {

TraceStore::TraceStore(std::size_t capacity)
{
    setCapacity(capacity);
}

ServiceId
TraceStore::intern(const std::string &name)
{
    auto it = idByName_.find(name);
    if (it != idByName_.end())
        return it->second;
    const ServiceId id = static_cast<ServiceId>(names_.size());
    names_.push_back(name);
    idByName_.emplace(name, id);
    return id;
}

ServiceId
TraceStore::serviceId(const std::string &name) const
{
    auto it = idByName_.find(name);
    return it == idByName_.end() ? kNoService : it->second;
}

const std::string &
TraceStore::serviceName(ServiceId id) const
{
    if (id >= names_.size())
        fatal(strCat("TraceStore::serviceName: invalid id ", id));
    return names_[id];
}

namespace {

/** Largest time a record holds: durations and components below 2^32. */
constexpr Tick kMax32 = 0xffffffffu;

/**
 * A record's code for kNoService. Services, instances and query types
 * below it fit their 16-bit fields.
 */
constexpr std::uint32_t kNoServiceCode = 0xffff;

/** @return whether every value of @p s fits a record. */
bool
fitsRecord(const Span &s)
{
    return s.end >= s.start && s.end - s.start <= kMax32 &&
           s.queueTime <= kMax32 && s.appTime <= kMax32 &&
           s.networkTime <= kMax32 && s.downstreamWait <= kMax32 &&
           (s.service < kNoServiceCode || s.service == kNoService) &&
           s.instance < kNoServiceCode && s.queryType < kNoServiceCode;
}

} // namespace

void
TraceStore::insert(const Span &span)
{
    std::size_t slot;
    if (size_ < capacity_) {
        // Filling: head_ is 0, so the next slot is size_.
        slot = size_++;
        if (slot >> kBlockBits == blocks_.size()) {
            // One table allocation for any ring of up to 1 GiB.
            if (blocks_.empty())
                blocks_.reserve(
                    std::min<std::size_t>((capacity_ - 1) / kBlockRecords + 1,
                                          1024));
            blocks_.push_back(
                std::make_unique_for_overwrite<Record[]>(kBlockRecords));
        }
    } else {
        // Full: overwrite the oldest slot and advance the head.
        slot = head_;
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
        ++evicted_;
        if (record(slot).wide)
            wide_.erase(slot);
    }
    const bool fits = fitsRecord(span);
    Record &r = record(slot);
    r.traceId = span.traceId;
    r.spanId = span.spanId;
    r.parentSpanId = span.parentSpanId;
    r.start = span.start;
    r.duration = static_cast<std::uint32_t>(span.end - span.start);
    r.queueTime = static_cast<std::uint32_t>(span.queueTime);
    r.appTime = static_cast<std::uint32_t>(span.appTime);
    r.networkTime = static_cast<std::uint32_t>(span.networkTime);
    r.downstreamWait = static_cast<std::uint32_t>(span.downstreamWait);
    r.service = static_cast<std::uint16_t>(
        span.service == kNoService ? kNoServiceCode : span.service);
    r.instance = static_cast<std::uint16_t>(span.instance);
    r.queryType = static_cast<std::uint16_t>(span.queryType);
    r.status = span.status;
    r.attempt = span.attempt;
    r.dataHits = span.dataHits;
    r.dataMisses = span.dataMisses;
    r.qosClass = span.qosClass;
    r.wide = !fits;
    if (!fits)
        wide_.insert_or_assign(slot, span);
    ++inserted_;
    indexDirty_ = true;
}

Span
TraceStore::at(std::size_t i) const
{
    std::size_t slot = head_ + i;
    if (slot >= size_)
        slot -= size_;
    const Record &r = record(slot);
    if (r.wide)
        return wide_.find(slot)->second;
    Span s;
    s.traceId = r.traceId;
    s.spanId = r.spanId;
    s.parentSpanId = r.parentSpanId;
    s.service = r.service == kNoServiceCode ? kNoService : r.service;
    s.instance = r.instance;
    s.queryType = r.queryType;
    s.start = r.start;
    s.end = r.start + r.duration;
    s.queueTime = r.queueTime;
    s.appTime = r.appTime;
    s.networkTime = r.networkTime;
    s.downstreamWait = r.downstreamWait;
    s.status = r.status;
    s.attempt = r.attempt;
    s.dataHits = r.dataHits;
    s.dataMisses = r.dataMisses;
    s.qosClass = r.qosClass;
    return s;
}

void
TraceStore::rebuildIndices() const
{
    byTrace_.clear();
    byService_.assign(names_.size(), {});
    for (std::size_t i = 0; i < size(); ++i) {
        const Span sp = at(i);
        byTrace_[sp.traceId].push_back(i);
        if (sp.service < byService_.size())
            byService_[sp.service].push_back(i);
    }
    indexDirty_ = false;
}

std::vector<Span>
TraceStore::byTrace(TraceId id) const
{
    if (indexDirty_)
        rebuildIndices();
    std::vector<Span> out;
    auto it = byTrace_.find(id);
    if (it == byTrace_.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t idx : it->second)
        out.push_back(at(idx));
    return out;
}

const std::vector<std::size_t> &
TraceStore::byService(ServiceId id) const
{
    if (indexDirty_)
        rebuildIndices();
    return id < byService_.size() ? byService_[id] : empty_;
}

const std::vector<std::size_t> &
TraceStore::byService(const std::string &svc) const
{
    return byService(serviceId(svc));
}

std::vector<std::string>
TraceStore::services() const
{
    if (indexDirty_)
        rebuildIndices();
    std::vector<std::string> out;
    for (ServiceId id = 0; id < byService_.size(); ++id)
        if (!byService_[id].empty())
            out.push_back(names_[id]);
    std::sort(out.begin(), out.end());
    return out;
}

void
TraceStore::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        fatal("TraceStore capacity must be at least 1");
    const std::size_t drop = size_ > capacity ? size_ - capacity : 0;
    if (drop > 0 || head_ != 0) {
        // Rotate slots [0, size_) left by k in place (three reversals):
        // the kept spans move to [0, size_ - drop), oldest first, and
        // the dropped ones to the tail.
        const std::size_t n = size_;
        const std::size_t k = (head_ + drop) % n;
        const auto reverse = [this](std::size_t lo, std::size_t hi) {
            while (lo + 1 < hi)
                std::swap(record(lo++), record(--hi));
        };
        reverse(0, k);
        reverse(k, n);
        reverse(0, n);
        std::unordered_map<std::size_t, Span> kept;
        for (const auto &[slot, span] : wide_) {
            const std::size_t to = (slot + n - k) % n;
            if (to < n - drop)
                kept.emplace(to, span);
        }
        wide_.swap(kept);
        size_ = n - drop;
        evicted_ += drop;
        head_ = 0;
        indexDirty_ = true;
    }
    capacity_ = capacity;
    blocks_.resize(
        std::min(blocks_.size(), (capacity - 1) / kBlockRecords + 1));
}

void
TraceStore::clear()
{
    size_ = 0;
    head_ = 0;
    evicted_ = 0;
    inserted_ = 0;
    wide_.clear();
    byTrace_.clear();
    byService_.clear();
    indexDirty_ = false;
}

namespace {

/** splitmix64 finalizer: decorrelates sequential trace ids. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

bool
Collector::sampled(TraceId id) const
{
    if (sampleEvery_ <= 1)
        return true;
    // Deterministic per-trace decision: every span of a trace agrees,
    // so sampled stores only ever hold complete traces.
    return mix64(id) % sampleEvery_ == 0;
}

void
Collector::collect(const Span &span)
{
    offered_->inc();
    if (!enabled_)
        return;
    if (!sampled(span.traceId)) {
        sampledOut_->inc();
        return;
    }
    stored_->inc();
    store_.insert(span);
}

void
Collector::bindMetrics(MetricsRegistry &metrics)
{
    Counter &off = metrics.counter("trace.spans_offered");
    Counter &out = metrics.counter("trace.spans_sampled_out");
    Counter &sto = metrics.counter("trace.spans_stored");
    off.inc(offered_->value());
    out.inc(sampledOut_->value());
    sto.inc(stored_->value());
    offered_ = &off;
    sampledOut_ = &out;
    stored_ = &sto;
}

} // namespace uqsim::trace
