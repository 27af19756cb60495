#include "core/event_queue.hh"

#include <algorithm>
#include <utility>

#include "core/logging.hh"

namespace uqsim {

namespace detail {

EventNode *
EventPool::allocate()
{
    if (!freeList) {
        chunks.push_back(std::make_unique<EventNode[]>(kChunkNodes));
        EventNode *arr = chunks.back().get();
        for (std::size_t i = kChunkNodes; i-- > 0;) {
            arr[i].next = freeList;
            freeList = &arr[i];
        }
    }
    EventNode *node = freeList;
    freeList = node->next;
    return node;
}

void
EventPool::release(EventNode *node)
{
    node->cb = nullptr; // drop captured resources promptly
    node->next = freeList;
    freeList = node;
}

} // namespace detail

namespace {

/** 64-bit FNV-1a step over one 64-bit word. */
inline std::uint64_t
fnv1aWord(std::uint64_t hash, std::uint64_t word)
{
    hash ^= word;
    return hash * 1099511628211ull;
}

} // namespace

EventQueue::EventQueue()
    : pool_(new detail::EventPool),
      buckets_(kBuckets),
      occWords_(kWords, 0),
      sumWords_(kSumWords, 0)
{}

EventQueue::~EventQueue()
{
    // Collect first: retiring releases nodes, which rewrites `next`.
    // Nodes are retired one at a time, so a callback's destructor that
    // drops a handle to a node not yet retired finds it still queued.
    std::vector<detail::EventNode *> queued;
    queued.reserve(bucketNodes_ + heap_.size());
    for (std::size_t w = 0; w < kWords; ++w)
        for (std::uint64_t bits = occWords_[w]; bits; bits &= bits - 1) {
            const std::size_t b =
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
            for (detail::EventNode *n = buckets_[b].head; n; n = n->next)
                queued.push_back(n);
        }
    for (const HeapEntry &e : heap_)
        queued.push_back(e.node);
    for (detail::EventNode *n : queued) {
        n->status = detail::EventStatus::Cancelled;
        retire(n);
    }
    detail::EventPool::unref(pool_);
}

EventHandle
EventQueue::schedule(Tick when, EventCallback &&cb)
{
    detail::EventNode *node = pool_->allocate();
    node->when = when;
    node->seq = nextSeq_++;
    node->cb = std::move(cb);
    node->next = nullptr;
    node->handleRefs = 1; // adopted by the returned handle
    node->status = detail::EventStatus::Scheduled;
    node->inQueue = true;

    // Unsigned compare also routes when < cursor_ (never produced by
    // Simulator, which forbids scheduling in the past) to the heap,
    // which handles arbitrary ticks.
    if (when - cursor_ < kBuckets) {
        Bucket &b = buckets_[when & kBucketMask];
        if (b.tail) {
            b.tail->next = node;
        } else {
            b.head = node;
            markOccupied(when & kBucketMask);
        }
        b.tail = node;
        ++bucketNodes_;
    } else {
        heap_.push_back(HeapEntry{when, node->seq, node});
        std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    }
    // A later sequence number sorts behind a same-tick memo.
    if (peeked_ && when < peeked_->when)
        peeked_ = nullptr;
    ++pool_->liveCount;
    ++pool_->refs; // the returned handle's
    return EventHandle(pool_, node);
}

void
EventQueue::markOccupied(std::size_t bucket) const
{
    occWords_[bucket >> 6] |= 1ull << (bucket & 63);
    sumWords_[bucket >> 12] |= 1ull << ((bucket >> 6) & 63);
}

void
EventQueue::clearOccupied(std::size_t bucket) const
{
    occWords_[bucket >> 6] &= ~(1ull << (bucket & 63));
    if (occWords_[bucket >> 6] == 0)
        sumWords_[bucket >> 12] &= ~(1ull << ((bucket >> 6) & 63));
}

void
EventQueue::retire(detail::EventNode *node) const
{
    node->inQueue = false;
    // Move the callback out and release the node before the callback
    // dies: destroying it may drop the node's last handle, whose
    // reset() then releases the (already unlinked) node itself.
    EventCallback cb;
    if (node->status == detail::EventStatus::Cancelled)
        cb = std::move(node->cb);
    if (node->handleRefs == 0)
        pool_->release(node);
}

std::size_t
EventQueue::nextOccupiedWord(std::size_t word) const
{
    // Ring-forward scan of the summary bitmap for the first non-empty
    // occupancy word strictly after `word`; after a full wrap the
    // current word itself may be returned again (its low, not-yet-
    // visited buckets are the ring-farthest region).
    const std::size_t bit = word & 63;
    const std::uint64_t afterMask = bit == 63 ? 0 : ~0ull << (bit + 1);
    for (std::size_t i = 0; i <= kSumWords; ++i) {
        const std::size_t idx = ((word >> 6) + i) & (kSumWords - 1);
        std::uint64_t sbits = sumWords_[idx];
        if (i == 0)
            sbits &= afterMask;
        else if (i == kSumWords)
            sbits &= ~afterMask;
        if (sbits)
            return (idx << 6) +
                   static_cast<std::size_t>(__builtin_ctzll(sbits));
    }
    return kInvalidBucket;
}

std::size_t
EventQueue::firstLiveBucket() const
{
    if (bucketNodes_ == 0)
        return kInvalidBucket;

    // Walk the occupancy bitmap ring-forward from the cursor bucket.
    // Live bucketed events have ticks in [cursor_, cursor_+kBuckets),
    // so ring order is tick order; cancelled nodes (whose ticks may
    // trail the cursor) are purged as they are encountered.
    const std::size_t start =
        static_cast<std::size_t>(cursor_) & kBucketMask;
    std::size_t word = start >> 6;
    std::uint64_t bits = occWords_[word] & (~0ull << (start & 63));
    while (true) {
        while (bits) {
            const std::size_t bucket =
                (word << 6) +
                static_cast<std::size_t>(__builtin_ctzll(bits));
            Bucket &b = buckets_[bucket];
            while (b.head &&
                   b.head->status == detail::EventStatus::Cancelled) {
                detail::EventNode *dead = b.head;
                b.head = dead->next;
                --bucketNodes_;
                retire(dead);
            }
            if (b.head)
                return bucket;
            b.tail = nullptr;
            clearOccupied(bucket);
            if (bucketNodes_ == 0)
                return kInvalidBucket;
            bits &= bits - 1;
        }
        word = nextOccupiedWord(word);
        if (word == kInvalidBucket)
            return kInvalidBucket;
        bits = occWords_[word];
    }
}

void
EventQueue::purgeHeapTop() const
{
    while (!heap_.empty() &&
           heap_.front().node->status == detail::EventStatus::Cancelled) {
        detail::EventNode *dead = heap_.front().node;
        std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
        heap_.pop_back();
        retire(dead);
    }
}

detail::EventNode *
EventQueue::peekNext(std::size_t *bucketIndex) const
{
    if (!peeked_ || peeked_->status == detail::EventStatus::Cancelled) {
        peeked_ = scanNext(&peekedBucket_);
    }
    *bucketIndex = peekedBucket_;
    return peeked_;
}

detail::EventNode *
EventQueue::scanNext(std::size_t *bucketIndex) const
{
    const std::size_t bucket = firstLiveBucket();
    detail::EventNode *fromBucket =
        bucket == kInvalidBucket ? nullptr : buckets_[bucket].head;
    purgeHeapTop();
    detail::EventNode *fromHeap =
        heap_.empty() ? nullptr : heap_.front().node;

    detail::EventNode *winner;
    if (fromBucket && fromHeap) {
        const bool bucketWins =
            fromBucket->when != fromHeap->when
                ? fromBucket->when < fromHeap->when
                : fromBucket->seq < fromHeap->seq;
        winner = bucketWins ? fromBucket : fromHeap;
    } else {
        winner = fromBucket ? fromBucket : fromHeap;
    }
    *bucketIndex =
        (winner && winner == fromBucket) ? bucket : kInvalidBucket;
    return winner;
}

Tick
EventQueue::nextTick() const
{
    std::size_t bucket;
    const detail::EventNode *node = peekNext(&bucket);
    if (!node)
        panic("EventQueue::nextTick() on empty queue");
    return node->when;
}

std::pair<Tick, EventCallback>
EventQueue::popNext()
{
    std::size_t bucket;
    detail::EventNode *node = peekNext(&bucket);
    if (!node)
        panic("EventQueue::popNext() on empty queue");

    if (bucket != kInvalidBucket) {
        Bucket &b = buckets_[bucket];
        b.head = node->next;
        if (!b.head) {
            b.tail = nullptr;
            clearOccupied(bucket);
        }
        --bucketNodes_;
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
        heap_.pop_back();
    }
    peeked_ = nullptr;

    node->status = detail::EventStatus::Fired;
    --pool_->liveCount;
    ++executed_;
    digest_ = fnv1aWord(fnv1aWord(digest_, node->when), node->seq);
    if (node->when > cursor_)
        cursor_ = node->when;

    // Move the callback out before recycling: it may schedule new
    // events, which mutates buckets/heap (and may reuse this node).
    std::pair<Tick, EventCallback> out{node->when, std::move(node->cb)};
    retire(node);
    return out;
}

} // namespace uqsim
