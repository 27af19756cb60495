#include "core/event_queue.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim {

namespace detail {

void
EventPool::grow()
{
    chunks.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    EventNode *arr = chunks.back().get();
    for (std::size_t i = kChunkNodes; i-- > 0;) {
        arr[i].next = freeList;
        freeList = &arr[i];
    }
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

inline std::size_t
ctz(std::uint64_t bits)
{
    return static_cast<std::size_t>(__builtin_ctzll(bits));
}

/** Fine bucket of tick @p when. */
inline std::size_t
fineIndex(Tick when)
{
    return static_cast<std::size_t>(when % EventQueue::kFineSpan /
                                    EventQueue::kBucketSpan);
}

/** Coarse slot of block @p block. */
inline std::size_t
coarseIndex(Tick block)
{
    return static_cast<std::size_t>(block % EventQueue::kCoarseSlots);
}

/** @return whether node @p a runs before the key (@p when, @p seq). */
inline bool
earlier(const detail::EventNode *a, Tick when, std::uint64_t seq)
{
    return a->when != when ? a->when < when : a->seq < seq;
}

} // namespace

template <unsigned Bits>
std::size_t
EventQueue::Level<Bits>::first() const
{
    const std::size_t w = ctz(summary);
    return (w << 6) + ctz(occ[w]);
}

template <unsigned Bits>
std::size_t
EventQueue::Level<Bits>::firstFrom(std::size_t start) const
{
    const std::size_t w = start >> 6;
    // The rest of start's own word, then the words after it, then the
    // wrap: the words before it and start's word again (whose bits at
    // or after start are known to be clear by then).
    if (const std::uint64_t bits = occ[w] & (~0ull << (start & 63)))
        return (w << 6) + ctz(bits);
    const std::uint64_t after = w == 63 ? 0 : summary & (~0ull << (w + 1));
    const std::size_t next = ctz(after ? after : summary);
    return (next << 6) + ctz(occ[next]);
}

EventQueue::~EventQueue()
{
    for (detail::EventNode *n : unlinkAll()) {
        n->status = detail::EventStatus::Cancelled;
        retire(n);
    }
    detail::EventPool::unref(pool_);
}

void
EventQueue::retireCancelled()
{
    if (!empty())
        panic("EventQueue::retireCancelled with live events queued");
    for (detail::EventNode *n : unlinkAll())
        retire(n);
}

std::vector<detail::EventNode *>
EventQueue::unlinkAll()
{
    // Collect first: retiring releases nodes, which rewrites `next`.
    // Nodes are retired one at a time, so a callback's destructor that
    // drops a handle to a node not yet retired finds it still queued.
    std::vector<detail::EventNode *> queued;
    const auto take = [&queued](auto &level) {
        for (std::size_t w = 0; w < level.occ.size(); ++w)
            for (std::uint64_t bits = level.occ[w]; bits; bits &= bits - 1) {
                const std::size_t slot = (w << 6) + ctz(bits);
                for (detail::EventNode *n = level.chains[slot].head; n;
                     n = n->next)
                    queued.push_back(n);
                level.clear(slot);
            }
    };
    take(wheel_->fine);
    take(wheel_->coarse);
    for (const HeapEntry &e : heap_)
        queued.push_back(e.node);
    heap_.clear();
    peeked_ = nullptr;
    return queued;
}

void
EventQueue::link(detail::EventNode *node, Tick when)
{
    node->when = when;
    node->seq = nextSeq_++;
    node->next = nullptr;
    node->handleRefs = 1; // adopted by the returned handle
    node->status = detail::EventStatus::Scheduled;
    node->inQueue = true;

    // Unsigned block distance: 0 is the fine level's block, 1 up to
    // kCoarseSlots - 1 a coarse slot; blocks behind the wheel (only
    // reachable after a peek moved it past the clock) wrap to a huge
    // distance and go to the heap with the far future.
    const Tick block = when >> kBlockBits;
    const Tick ahead = block - curBlock_;
    if (ahead == 0) {
        wheel_->fine.insert(fineIndex(when), node);
    } else if (ahead < kCoarseSlots) {
        wheel_->coarse.append(coarseIndex(block), node);
    } else {
        heap_.push_back(HeapEntry{when, node->seq, node});
        std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    }
    // A later sequence number sorts behind a same-tick memo.
    if (peeked_ && when < peeked_->when)
        peeked_ = nullptr;
    ++pool_->liveCount;
    ++pool_->refs; // the returned handle's
}

void
EventQueue::retire(detail::EventNode *node) const
{
    node->cb = nullptr;
    node->inQueue = false;
    if (node->handleRefs == 0)
        pool_->release(node);
}

void
EventQueue::cascade(std::size_t slot) const
{
    // The fine level is empty and the slot's chain is in scheduling
    // order, so each node's sequence number is the highest in its
    // bucket yet, as insert() needs.
    Wheel &w = *wheel_;
    detail::EventNode *n = w.coarse.chains[slot].head;
    w.coarse.clear(slot);
    while (n) {
        detail::EventNode *next = n->next;
        if (n->status == detail::EventStatus::Cancelled) {
            retire(n);
        } else {
            n->next = nullptr;
            w.fine.insert(fineIndex(n->when), n);
        }
        n = next;
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

void
EventQueue::peek() const
{
    Wheel &w = *wheel_;
    while (true) {
        // Purged even when the wheel wins: a drained queue must not keep
        // cancelled far-future events (and what their callbacks own).
        purgeHeapTop();
        const HeapEntry *top = heap_.empty() ? nullptr : &heap_.front();
        // The first fine bucket with a live head, purging on the way.
        while (!w.fine.empty()) {
            const std::size_t fine = w.fine.first();
            Chain &c = w.fine.chains[fine];
            while (c.head &&
                   c.head->status == detail::EventStatus::Cancelled) {
                detail::EventNode *dead = c.head;
                c.head = dead->next;
                retire(dead);
            }
            if (!c.head) {
                w.fine.clear(fine);
                continue;
            }
            if (!top || earlier(c.head, top->when, top->seq)) {
                peeked_ = c.head;
                peekedSlot_ = fine;
                return;
            }
            break;
        }
        if (top &&
            (!w.fine.empty() || top->when >> kBlockBits <= curBlock_)) {
            // The heap's top precedes the wheel: a heap event in the
            // fine level's block or an earlier one comes before every
            // coarse event.
            peeked_ = top->node;
            peekedSlot_ = kHeapSlot;
            return;
        }
        // The fine level is dry.
        const Tick heapBlock = top ? top->when >> kBlockBits : kMaxTick;
        Tick coarseBlock = kMaxTick;
        std::size_t coarseSlot = 0;
        if (!w.coarse.empty()) {
            const std::size_t start = coarseIndex(curBlock_ + 1);
            coarseSlot = w.coarse.firstFrom(start);
            coarseBlock = curBlock_ + 1 +
                          ((coarseSlot - start) & (kCoarseSlots - 1));
        }
        if (coarseBlock == kMaxTick && !top)
            panic("EventQueue: peek on an empty queue");
        // Move the fine level up to the earliest pending block. A
        // coarse slot of that block must come along even when a heap
        // event is what moved it there: new events of the block go to
        // the fine level from now on and may be later than the slot's.
        curBlock_ = std::min(heapBlock, coarseBlock);
        if (coarseBlock == curBlock_)
            cascade(coarseSlot);
    }
}

void
EventQueue::runNext(Tick &now)
{
    if (!peeked_ || peeked_->status == detail::EventStatus::Cancelled)
        peek();
    detail::EventNode *node = peeked_;
    peeked_ = nullptr;
    if (peekedSlot_ != kHeapSlot) {
        Chain &c = wheel_->fine.chains[peekedSlot_];
        c.head = node->next;
        if (!c.head)
            wheel_->fine.clear(peekedSlot_);
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
        heap_.pop_back();
    }

    node->status = detail::EventStatus::Fired;
    --pool_->liveCount;
    ++executed_;
    digest_ = fnv1aWord(fnv1aWord(digest_, node->when), node->seq);
    now = node->when;
    // The node stays queued through the call and the destruction: the
    // callback may schedule (the node is not on the free list) and may
    // drop the last handle to it (which must not recycle it yet).
    node->cb.consume();
    node->inQueue = false;
    if (node->handleRefs == 0)
        pool_->release(node);
}

} // namespace uqsim
