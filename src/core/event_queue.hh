/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are closures scheduled at absolute ticks. Two events scheduled
 * for the same tick fire in scheduling order (FIFO), which keeps runs
 * deterministic. Events can be cancelled through the handle returned at
 * scheduling time; cancellation is O(1) and the entry is discarded
 * lazily when the queue next encounters it.
 *
 * Internally this is a ladder/calendar queue rather than a binary heap:
 * a ring of per-tick FIFO buckets covers the near future (O(1) schedule
 * and pop for the common short-delay case), and an overflow min-heap
 * holds events scheduled beyond the bucket window. Event nodes are
 * pooled through an intrusive free list, so steady-state scheduling
 * performs no allocation. The execution order is exactly the global
 * (tick, sequence-number) order the old heap implementation produced,
 * and a running FNV-1a digest over every executed (tick, seq) pair lets
 * two runs be proven identical (see executionDigest()).
 */

#ifndef UQSIM_CORE_EVENT_QUEUE_HH
#define UQSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/inline_function.hh"
#include "core/types.hh"

namespace uqsim {

/**
 * Callback type invoked when an event fires. Move-only; captures up to
 * 64 bytes are stored in the event node itself (see InlineFunction).
 */
using EventCallback = InlineFunction<void(), 64>;

namespace detail {

/** Lifecycle of a pooled event node. */
enum class EventStatus : std::uint8_t
{
    Scheduled,  ///< linked in a bucket or the overflow heap
    Fired,      ///< popped and executed (or being executed)
    Cancelled,  ///< cancelled before firing; unlinked lazily
};

/**
 * One scheduled event. Nodes are pooled and linked intrusively: the
 * same `next` pointer threads a node through its tick bucket's FIFO
 * chain and, once retired, through the pool free list.
 */
struct EventNode
{
    // What a queue scan reads comes first, the callback last.
    Tick when = 0;
    std::uint64_t seq = 0;
    EventNode *next = nullptr;
    /** Number of live EventHandle copies referring to this node. */
    std::uint32_t handleRefs = 0;
    EventStatus status = EventStatus::Fired;
    /** Still linked in a bucket chain or the overflow heap. */
    bool inQueue = false;
    EventCallback cb;
};

/**
 * Chunked node pool shared between the queue and any outstanding
 * handles, so a handle may safely outlive its queue. The queue and
 * every handle hold one reference each; the count is plain, not
 * atomic, because a queue and its handles belong to one shard and are
 * only touched by the thread running that shard.
 */
struct EventPool
{
    static constexpr std::size_t kChunkNodes = 4096;

    std::vector<std::unique_ptr<EventNode[]>> chunks;
    EventNode *freeList = nullptr;
    /** Scheduled-and-not-cancelled events (shared so handles can
     *  decrement it on cancellation). */
    std::uint64_t liveCount = 0;
    /** The queue's reference plus one per live EventHandle. */
    std::uint64_t refs = 1;

    /** Pop a node off the free list, growing the pool if needed. */
    EventNode *allocate();

    /** Return a retired, unreferenced node to the free list. */
    void release(EventNode *node);

    /** Drop one reference; the last one deletes the pool. */
    static void
    unref(EventPool *pool)
    {
        if (--pool->refs == 0)
            delete pool;
    }
};

} // namespace detail

/**
 * Handle to a scheduled event, allowing cancellation.
 *
 * Handles are cheap to copy; all copies refer to the same scheduled
 * event. A default-constructed handle refers to nothing. A node is
 * never recycled while a handle still refers to it, so status queries
 * stay accurate for as long as the handle is held.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    EventHandle(const EventHandle &other)
        : pool_(other.pool_), node_(other.node_)
    {
        if (node_) {
            ++node_->handleRefs;
            ++pool_->refs;
        }
    }

    EventHandle(EventHandle &&other) noexcept
        : pool_(other.pool_), node_(other.node_)
    {
        other.pool_ = nullptr;
        other.node_ = nullptr;
    }

    /** Unified copy/move assignment (copy-and-swap). */
    EventHandle &
    operator=(EventHandle other) noexcept
    {
        std::swap(pool_, other.pool_);
        std::swap(node_, other.node_);
        return *this;
    }

    ~EventHandle() { reset(); }

    /** Cancel the event if it has not fired yet. Idempotent. */
    void
    cancel()
    {
        if (node_ && node_->status == detail::EventStatus::Scheduled) {
            node_->status = detail::EventStatus::Cancelled;
            --pool_->liveCount;
        }
    }

    /** @return true if this handle refers to a scheduled event. */
    bool valid() const { return node_ != nullptr; }

    /** @return true if the event was cancelled before firing. */
    bool
    isCancelled() const
    {
        return node_ && node_->status == detail::EventStatus::Cancelled;
    }

    /** @return true if the event already fired. */
    bool
    hasFired() const
    {
        return node_ && node_->status == detail::EventStatus::Fired;
    }

  private:
    friend class EventQueue;

    /**
     * Adopts one reference already counted in node->handleRefs and
     * one in pool->refs.
     */
    EventHandle(detail::EventPool *pool, detail::EventNode *node)
        : pool_(pool), node_(node)
    {}

    void
    reset()
    {
        if (!node_)
            return;
        if (--node_->handleRefs == 0 && !node_->inQueue &&
            node_->status != detail::EventStatus::Scheduled) {
            pool_->release(node_);
        }
        node_ = nullptr;
        detail::EventPool::unref(pool_);
        pool_ = nullptr;
    }

    detail::EventPool *pool_ = nullptr;
    detail::EventNode *node_ = nullptr;
};

/**
 * Ladder/calendar queue of timed events with deterministic same-tick
 * FIFO ordering (globally: ascending (tick, sequence) order).
 */
class EventQueue
{
  public:
    EventQueue();

    /**
     * Destroys the callbacks of events still queued (a run may stop
     * with events pending). Handles to them stay valid and report the
     * events as cancelled.
     */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to fire at absolute time @p when.
     * @return a handle that may be used to cancel the event.
     */
    EventHandle schedule(Tick when, EventCallback &&cb);

    /** @return true if no live (uncancelled) events remain. */
    bool empty() const { return pool_->liveCount == 0; }

    /** @return number of live events currently queued. */
    std::size_t size() const { return pool_->liveCount; }

    /**
     * @return the firing time of the earliest live event.
     * @pre !empty()
     *
     * The node found is memoized, so the run loop's peeks and the pop
     * that follows them cost one queue scan per event.
     */
    Tick nextTick() const;

    /**
     * Pop the earliest live event *without* running it. The caller
     * (Simulator) advances its clock to the returned tick first and
     * then invokes the callback, so event handlers always observe the
     * correct current time.
     * @pre !empty()
     */
    std::pair<Tick, EventCallback> popNext();

    /** Total number of events ever executed (for stats/benchmarks). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Running FNV-1a hash over the (tick, sequence) of every executed
     * event. Two runs with identical scheduling decisions — i.e. the
     * same seed — produce identical digests, so this is a cheap,
     * order-sensitive proof of determinism.
     */
    std::uint64_t executionDigest() const { return digest_; }

  private:
    /** Near-future window: 2^14 one-tick buckets (~16us of sim time). */
    static constexpr unsigned kBucketBits = 14;
    static constexpr std::size_t kBuckets = std::size_t(1) << kBucketBits;
    static constexpr std::size_t kBucketMask = kBuckets - 1;
    static constexpr std::size_t kWords = kBuckets / 64;
    static constexpr std::size_t kSumWords = kWords / 64;
    static_assert(kSumWords > 0 && (kSumWords & (kSumWords - 1)) == 0,
                  "the summary ring is walked with a mask");
    static constexpr std::size_t kInvalidBucket = ~std::size_t(0);

    /** FIFO chain of events sharing one firing tick. */
    struct Bucket
    {
        detail::EventNode *head = nullptr;
        detail::EventNode *tail = nullptr;
    };

    /**
     * Overflow-heap entry with the ordering key inline, so sift
     * compares never dereference cold pool nodes.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        detail::EventNode *node;
    };

    /** Heap order: earliest (tick, seq) at the top. */
    struct HeapLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void markOccupied(std::size_t bucket) const;
    void clearOccupied(std::size_t bucket) const;

    /**
     * Ring-forward scan for the next non-empty occupancy word after
     * @p word (possibly @p word itself again after a full wrap).
     * @return word index, or kInvalidBucket if none.
     */
    std::size_t nextOccupiedWord(std::size_t word) const;

    /**
     * Find the bucket holding the earliest live bucketed event,
     * purging cancelled nodes encountered on the way.
     * @return bucket index, or kInvalidBucket if no live bucketed event.
     */
    std::size_t firstLiveBucket() const;

    /** Drop cancelled entries from the top of the overflow heap. */
    void purgeHeapTop() const;

    /**
     * Unlink a retired node and recycle it if no handles remain. A
     * cancelled node's callback is destroyed here too, after the node
     * is released: the callback may hold the last handle to its own
     * node (a timeout closure owning the state that owns the timeout's
     * handle), so keeping it until the handles go would leak the cycle.
     */
    void retire(detail::EventNode *node) const;

    /**
     * Select the earliest live event across buckets and heap, reusing
     * the memoized result while it is still valid.
     * @return the node, or nullptr if none; *bucketIndex tells where
     *         (kInvalidBucket for the heap).
     */
    detail::EventNode *peekNext(std::size_t *bucketIndex) const;

    /** Full scan behind peekNext (purges cancelled nodes on the way). */
    detail::EventNode *scanNext(std::size_t *bucketIndex) const;

    detail::EventPool *pool_;

    /** Ring of per-tick buckets covering [cursor_, cursor_+kBuckets). */
    mutable std::vector<Bucket> buckets_;
    /** Occupancy bitmap: bit b set iff buckets_[b] is non-empty. */
    mutable std::vector<std::uint64_t> occWords_;
    /** Summary bitmap: bit w set iff occWords_[w] != 0. */
    mutable std::vector<std::uint64_t> sumWords_;
    /** Nodes (live or cancelled) currently linked in buckets. */
    mutable std::size_t bucketNodes_ = 0;

    /** Overflow min-heap (HeapLater order) for events beyond the
     *  bucket window. */
    mutable std::vector<HeapEntry> heap_;

    /**
     * Memo of the last peek: the earliest live node and its bucket.
     * Null when unknown. Cleared by popNext and by scheduling an event
     * at an earlier tick; a memoized node found cancelled is rescanned.
     * A same-tick event goes behind it (FIFO), so it stays valid.
     */
    mutable detail::EventNode *peeked_ = nullptr;
    mutable std::size_t peekedBucket_ = kInvalidBucket;

    /** Max tick popped so far; lower bound for all live events. */
    Tick cursor_ = 0;

    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t digest_ = 14695981039346656037ull; // FNV-1a offset
};

} // namespace uqsim

#endif // UQSIM_CORE_EVENT_QUEUE_HH
