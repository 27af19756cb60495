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
 * Each event lives in a pooled node for its whole life: schedule()
 * builds the callable in the node, runNext() calls it there and then
 * destroys it there, so an event costs one construction, one call and
 * one destruction and is never relocated. Nodes are recycled through
 * an intrusive free list, so steady-state scheduling performs no
 * allocation.
 *
 * The pending set is a two-level hashed timing wheel (Varghese and
 * Lauck) in front of a binary heap, 32 KB of chain heads in all:
 *
 *  - the fine level holds the current block of kFineSpan ticks (about
 *    262 us) in buckets of kBucketSpan ticks, each kept in (tick,
 *    sequence) order;
 *  - the coarse level holds the next kCoarseSlots - 1 blocks in
 *    per-block FIFO slots; when the fine level runs dry, the earliest
 *    slot is cascaded into it;
 *  - the overflow heap takes everything beyond the coarse level (about
 *    268 ms ahead), and ticks in blocks the wheel has already moved
 *    past.
 *
 * A block is wide enough that most events are filed once, straight
 * into the fine level. A fine bucket is sorted by insertion in place,
 * and the common insertion, at or after the bucket's tail, is an O(1)
 * append; a coarse slot is an O(1) append however many events share
 * it. The execution order is exactly the global (tick,
 * sequence-number) order, and a running FNV-1a digest over every
 * executed (tick, seq) pair lets two runs be proven identical (see
 * executionDigest()).
 */

#ifndef UQSIM_CORE_EVENT_QUEUE_HH
#define UQSIM_CORE_EVENT_QUEUE_HH

#include <array>
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
    Scheduled,  ///< linked in the wheel or the overflow heap
    Fired,      ///< popped and executed (or being executed)
    Cancelled,  ///< cancelled before firing; unlinked lazily
};

/**
 * One scheduled event. Nodes are pooled and linked intrusively: the
 * same `next` pointer threads a node through its wheel slot's FIFO
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
    /**
     * Owned by the queue: set from scheduling until the callback has
     * been destroyed, so no handle can recycle the node before then.
     */
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
    EventNode *
    allocate()
    {
        if (!freeList)
            grow();
        EventNode *node = freeList;
        freeList = node->next;
        return node;
    }

    /** Add one chunk of nodes to the free list. */
    void grow();

    /** Return a retired, unreferenced node (callback already
     *  destroyed) to the free list. */
    void
    release(EventNode *node)
    {
        node->next = freeList;
        freeList = node;
    }

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

    /** @return true if the event already fired (or is firing). */
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
        if (--node_->handleRefs == 0 && !node_->inQueue)
            pool_->release(node_);
        node_ = nullptr;
        detail::EventPool::unref(pool_);
        pool_ = nullptr;
    }

    detail::EventPool *pool_ = nullptr;
    detail::EventNode *node_ = nullptr;
};

/**
 * Timing wheel of timed events with deterministic same-tick FIFO
 * ordering (globally: ascending (tick, sequence) order).
 */
class EventQueue
{
    static constexpr unsigned kBucketBits = 8;
    static constexpr unsigned kFineBits = 10;
    static constexpr unsigned kCoarseBits = 10;
    /** A tick's block is tick >> kBlockBits. */
    static constexpr unsigned kBlockBits = kBucketBits + kFineBits;

  public:
    /** Ticks per fine bucket. */
    static constexpr Tick kBucketSpan = Tick(1) << kBucketBits;
    /** Ticks per fine block: 2^kFineBits buckets. */
    static constexpr Tick kFineSpan = Tick(1) << kBlockBits;
    /** Coarse slots, one block each (the current block's is unused). */
    static constexpr std::size_t kCoarseSlots = std::size_t(1)
                                                << kCoarseBits;

    EventQueue() = default;

    /**
     * Destroys the callbacks of events still queued (a run may stop
     * with events pending). Handles to them stay valid and report the
     * events as cancelled.
     */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to fire at absolute time @p when. The callable is
     * constructed in the event's pooled node.
     * @return a handle that may be used to cancel the event.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn)
    {
        detail::EventNode *node = pool_->allocate();
        node->cb.emplace(std::forward<F>(fn));
        link(node, when);
        return EventHandle(pool_, node);
    }

    /** @return true if no live (uncancelled) events remain. */
    bool empty() const { return pool_->liveCount == 0; }

    /**
     * Retire the cancelled events a drained queue still holds: their
     * callbacks, and what those own, are destroyed now instead of when
     * a later scan passes their ticks or the queue dies.
     * @pre empty()
     */
    void retireCancelled();

    /** @return number of live events currently queued. */
    std::size_t size() const { return pool_->liveCount; }

    /**
     * @return the firing time of the earliest live event.
     * @pre !empty()
     *
     * The node found is memoized, so the run loop's peeks and the
     * runNext() that follows them cost one queue scan per event.
     */
    Tick
    nextTick() const
    {
        if (!peeked_ || peeked_->status == detail::EventStatus::Cancelled)
            peek();
        return peeked_->when;
    }

    /**
     * Run the earliest live event: unlink it, set @p now to its tick,
     * call its callback in place and destroy the callback there.
     * Handles report the event as fired from the call on; the node is
     * recycled only once the callback is destroyed and no handle
     * refers to it.
     * @pre !empty()
     */
    void runNext(Tick &now);

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
    /** peekedSlot_ value of a memoized node on the overflow heap. */
    static constexpr std::size_t kHeapSlot = ~std::size_t(0);

    /** Chain of events sharing one wheel slot. */
    struct Chain
    {
        detail::EventNode *head = nullptr;
        detail::EventNode *tail = nullptr;
    };

    /**
     * One wheel level: 2^Bits chains, an occupancy bitmap and a
     * summary word over the bitmap (bit w set iff word w is non-zero).
     */
    template <unsigned Bits>
    struct Level
    {
        static constexpr std::size_t kSlots = std::size_t(1) << Bits;
        static constexpr std::size_t kWords = kSlots / 64;
        static_assert(kWords >= 1 && kWords <= 64,
                      "one summary word covers the bitmap");

        std::array<Chain, kSlots> chains{};
        std::array<std::uint64_t, kWords> occ{};
        std::uint64_t summary = 0;

        bool empty() const { return summary == 0; }

        /** Add @p node at the end of @p slot's chain. */
        void
        append(std::size_t slot, detail::EventNode *node)
        {
            // Test the bitmap, not the chain: a wheel slot is usually
            // empty, and its chain head is usually not in cache, so this
            // leaves a store miss where a load would stall.
            std::uint64_t &word = occ[slot >> 6];
            const std::uint64_t bit = 1ull << (slot & 63);
            Chain &c = chains[slot];
            if (word & bit) {
                c.tail->next = node;
            } else {
                c.head = node;
                word |= bit;
                summary |= 1ull << (slot >> 6);
            }
            c.tail = node;
        }

        /**
         * Add @p node to @p slot's chain in (tick, seq) order. Its
         * sequence number must exceed every one in the chain, so it
         * goes behind the nodes of its own tick.
         */
        void
        insert(std::size_t slot, detail::EventNode *node)
        {
            const std::uint64_t bit = 1ull << (slot & 63);
            Chain &c = chains[slot];
            if (!(occ[slot >> 6] & bit) || node->when >= c.tail->when) {
                append(slot, node);
            } else if (node->when < c.head->when) {
                node->next = c.head;
                c.head = node;
            } else {
                detail::EventNode *prev = c.head;
                while (prev->next->when <= node->when)
                    prev = prev->next;
                node->next = prev->next;
                prev->next = node;
            }
        }

        /** Mark @p slot empty (its chain must already be unlinked). */
        void
        clear(std::size_t slot)
        {
            chains[slot] = Chain{};
            std::uint64_t &word = occ[slot >> 6];
            word &= ~(1ull << (slot & 63));
            if (word == 0)
                summary &= ~(1ull << (slot >> 6));
        }

        /** @return the lowest occupied slot. @pre !empty() */
        std::size_t first() const;

        /** @return the first occupied slot at or after @p start in
         *  ring order. @pre !empty() */
        std::size_t firstFrom(std::size_t start) const;
    };

    /** Overflow-heap entry with the ordering key inline, so sift
     *  compares never dereference cold pool nodes. */
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

    /** Stamp a freshly filled node and file it by its tick. */
    void link(detail::EventNode *node, Tick when);

    /**
     * Memoize the earliest live event and where it is (peeked_,
     * peekedSlot_), purging cancelled nodes and cascading a coarse slot
     * when the fine level runs dry. Panics when there is none.
     */
    void peek() const;

    /** Move coarse slot @p slot's live events into the fine level. */
    void cascade(std::size_t slot) const;

    /** Drop cancelled entries from the top of the overflow heap. */
    void purgeHeapTop() const;

    /** Empty the wheel and the heap: @return every node they held. */
    std::vector<detail::EventNode *> unlinkAll();

    /**
     * Destroy a node's callback in place, then mark the node unqueued
     * and recycle it if no handles remain. The callback may hold the
     * last handle to its own node (a timeout closure owning the state
     * that owns the timeout's handle); the node is still marked queued
     * while it dies, so that handle cannot release it twice.
     */
    void retire(detail::EventNode *node) const;

    detail::EventPool *pool_ = new detail::EventPool;

    /** Block (tick >> kBlockBits) held by the fine level. */
    mutable Tick curBlock_ = 0;

    /**
     * The two levels, allocated apart from the queue. Inline, they make
     * each queue 33 KB larger: on uqbench social-keyed-rw, whose driver
     * builds and tears down 21 worlds per process, the driver's minor
     * faults rose from 23,690 to 28,530 (glibc trimmed and refaulted
     * the heap top between set-ups), and set-up ran slower than with
     * the levels apart in 4 of 5 rotations.
     */
    struct Wheel
    {
        /** Buckets of block curBlock_, kBucketSpan ticks each. */
        Level<kFineBits> fine;
        /** Per-block slots of blocks (curBlock_, curBlock_ +
         *  kCoarseSlots), block b in slot b % kCoarseSlots. */
        Level<kCoarseBits> coarse;
    };
    const std::unique_ptr<Wheel> wheel_ = std::make_unique<Wheel>();
    /** Overflow min-heap (HeapLater order): blocks past the coarse
     *  level, and blocks before curBlock_. */
    mutable std::vector<HeapEntry> heap_;

    /**
     * Memo of the last peek: the earliest live node and its fine
     * bucket (kHeapSlot for the heap). Null when unknown. Cleared by
     * runNext and by scheduling an event at an earlier tick; a memoized
     * node found cancelled is rescanned. An event at the memo's tick or
     * later files behind it, so it stays valid.
     */
    mutable detail::EventNode *peeked_ = nullptr;
    mutable std::size_t peekedSlot_ = kHeapSlot;

    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t digest_ = 14695981039346656037ull; // FNV-1a offset
};

} // namespace uqsim

#endif // UQSIM_CORE_EVENT_QUEUE_HH
