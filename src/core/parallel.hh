/**
 * @file
 * Conservative sharded parallel discrete-event engine.
 *
 * The world is partitioned into shards; each shard owns its own
 * EventQueue and clock and executes strictly sequentially, so all
 * single-threaded invariants of the model hold within a shard. Shards
 * are synchronized with a barrier-stepped conservative protocol:
 *
 *   round:  horizon = min(next event time over all shards) + lookahead
 *           every shard executes its events with time < horizon
 *   barrier: cross-shard events buffered during the round in the
 *            senders' outboxes are merged into their destination
 *            queues in deterministic (when, source shard, source
 *            sequence) order
 *
 * The lookahead is the minimum cross-shard latency (for the network
 * worlds: the minimum inter-shard wire latency); every cross-shard
 * event must be scheduled at least `lookahead` ticks in the future,
 * which is what makes executing the window [minNext, minNext+lookahead)
 * safe: nothing sent during the round can land inside it.
 *
 * Determinism is by construction, independent of the thread
 * count: shard execution is sequential, rounds are a pure function of
 * simulation state, and outbox merges are sorted. Per-shard FNV-1a
 * digests compose into a run digest that is order-sensitive within a
 * shard and order-insensitive (commutative) across shards; with one
 * shard the composed digest is that shard's queue digest verbatim.
 *
 * This is the only engine: a single-shard world is a one-shard
 * ParallelSimulator, which runs every event in one round (its
 * lookahead is kMaxTick) on the driving thread. See docs/PARALLEL.md.
 *
 * Rounds are stepped by one std::barrier<> of `threads` participants.
 * The driving thread (the one that calls run() or runUntil()) is
 * participant 0: it publishes the horizon, arrives, runs shards 0,
 * threads, 2*threads, ... and arrives again, while threads-1 workers
 * run the other shard groups between the same two arrivals. With one
 * thread the barrier has one participant and the same loop runs.
 *
 * Mail takes no lock and allocates nothing once the buffers have
 * grown. Shard s keeps one outbox per destination; only the thread
 * running s writes it (inside a round, or the driving thread between
 * rounds), and only deliverMail() reads and clears it, between rounds.
 * Delivery moves each callback into a MailSlot owned by the
 * destination and schedules a one-pointer event that runs it, destroys
 * it in place and returns the slot. Slots are taken between rounds on
 * the driving thread (or by a same-shard post, on the shard's own
 * thread) and returned inside rounds on the destination's thread; the
 * barrier's phase completions order the two, so the slot free list
 * needs no lock.
 */

#ifndef UQSIM_CORE_PARALLEL_HH
#define UQSIM_CORE_PARALLEL_HH

#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/event_queue.hh"
#include "core/frame_pool.hh"
#include "core/sim_context.hh"
#include "core/types.hh"

namespace uqsim {

/**
 * Sharded simulation driver: N queues, N clocks, one horizon.
 */
class ParallelSimulator
{
  public:
    struct Config
    {
        /** Number of shards (server groups with their own queue). */
        unsigned shards = 1;

        /**
         * Conservative synchronization window: the minimum cross-shard
         * event delay. kMaxTick (the default) declares that no
         * cross-shard channel exists — shards then run the whole
         * window in one round and any postToShard() is an error.
         */
        Tick lookahead = kMaxTick;

        /**
         * Threads executing shard rounds, the driving thread included
         * (capped to the shard count): threads-1 workers are spawned,
         * and 1 runs every round on the driving thread. The execution
         * digest does not depend on this value.
         */
        unsigned threads = 1;
    };

    explicit ParallelSimulator(Config config);
    ~ParallelSimulator();

    ParallelSimulator(const ParallelSimulator &) = delete;
    ParallelSimulator &operator=(const ParallelSimulator &) = delete;

    /** @return the scheduling context of shard @p shard. */
    SimContext context(unsigned shard);

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Threads running rounds, the driving thread included. */
    unsigned threads() const { return nthreads_; }

    Tick lookahead() const { return lookahead_; }

    /** @return shard @p shard's current clock. */
    Tick now(unsigned shard) const;

    /**
     * Register a periodic clock observer on @p shard. It fires at every
     * multiple of @p interval, starting one interval past the shard's
     * clock, *between* that shard's events, never as one: when the
     * callback for boundary B runs, every local event with time < B
     * has executed and none with time >= B has, so it sees the shard
     * exactly as of instant B. Because observers never enter a queue,
     * a run with observers has the same digest as one without (the
     * basis of the obs layer's digest guarantee). The conservative
     * protocol guarantees no later mail can land below B, so the
     * lazily-fired sample is identical to one taken eagerly, and
     * therefore thread-count invariant.
     *
     * Observers must not schedule events or mutate model state. Firing
     * is lazy (a boundary with no event at or after it yet fires as
     * soon as one appears, or at the runUntil() deadline) and
     * deterministic: boundaries fire in registration order at equal
     * ticks. Register before driving the engine; zero intervals are an
     * internal error.
     */
    void addClockObserver(unsigned shard, Tick interval,
                          ClockObserverFn fn);

    /** Run until every queue and outbox drains, then retire the
     *  cancelled events the queues still hold. */
    void run();

    /**
     * Run every shard up to @p deadline (events with time <= deadline
     * fire), then set all shard clocks to @p deadline. An event at
     * kMaxTick never fires.
     */
    void runUntil(Tick deadline);

    /**
     * runUntil(latest shard clock + @p duration), the sum saturating
     * at kMaxTick.
     */
    void runFor(Tick duration);

    /** Total events executed across all shards. */
    std::uint64_t eventsExecuted() const;

    /**
     * The composed run digest. One shard: that shard's FNV-1a digest
     * verbatim (the legacy single-queue digest). N shards: a
     * commutative mix of the per-shard digests, so the value is
     * independent of cross-shard execution interleaving — and thus of
     * the thread count — while remaining order-sensitive within
     * each shard.
     */
    std::uint64_t executionDigest() const;

    /** Shard @p shard's own order-sensitive digest. */
    std::uint64_t shardDigest(unsigned shard) const;

  private:
    friend class SimContext;

    /** A periodic clock observer (see addClockObserver). */
    struct ClockObserver
    {
        Tick interval = 0;
        Tick next = 0;
        ClockObserverFn fn;
    };

    /** A posted callback waiting in its sender's outbox. */
    struct Mail
    {
        Tick when = 0;
        MailCallback cb;
    };

    /** A delivered (or same-shard) callback, owned by its shard. */
    struct MailSlot : PooledFrame<MailSlot>
    {
        MailCallback cb;
    };

    /** Sort key of one outbox entry: (when, source, index in outbox). */
    struct MailKey
    {
        Tick when;
        unsigned src;
        std::uint32_t index;
    };

    /** One shard: slots, queue, clock and outboxes. */
    struct Shard
    {
        /**
         * Callbacks scheduled on this shard's queue by postToShard. A
         * slot still pending when the shard is destroyed dies with the
         * pool, and its callback with it.
         */
        FramePool<MailSlot> slots;
        EventQueue queue;
        Tick now = 0;
        /** Mail posted here for each destination shard (index). */
        std::vector<std::vector<Mail>> outbox;
        /** Periodic sampling callbacks (empty on the common path). */
        std::vector<ClockObserver> observers;
        /** Earliest pending boundary (kMaxTick while none). */
        Tick nextBoundary = kMaxTick;

        /**
         * Fire every boundary <= @p limit (registration order) and
         * recompute nextBoundary. Callers test nextBoundary first, so
         * an idle observer costs one compare per event.
         */
        void fireObservers(Tick limit);
    };

    /**
     * Post @p cb from shard @p src to run on @p dst at @p when (called
     * via SimContext): into @p src's outbox for @p dst, or straight
     * into a slot of @p src's own.
     */
    void postToShard(unsigned src, unsigned dst, Tick when,
                     MailCallback cb);

    /** Move @p cb into a slot of @p s and schedule it at @p when. */
    static void scheduleMail(Shard &s, Tick when, MailCallback &&cb);

    /**
     * Merge all outboxes into destination queues, sorted by (when,
     * src, index). Runs between rounds, on the driving thread.
     */
    void deliverMail();

    /** Earliest pending event time across all shard queues. */
    Tick minNextTick() const;

    /**
     * The round loop of run() and runUntil(): deliver mail, then run
     * one round up to min(@p end, earliest event + lookahead), until
     * no event is left below @p end.
     */
    void runRounds(Tick end);

    /** Run shards @p first, first+threads, ... up to @p horizon. */
    void runShardGroup(unsigned first, Tick horizon);

    /** Sequentially run shard @p s up to @p horizon. */
    void runShard(Shard &s, Tick horizon);

    /** Worker @p index's body: run shard group @p index each round. */
    void workerLoop(unsigned index);

    std::vector<std::unique_ptr<Shard>> shards_;
    /** deliverMail()'s sort buffer, kept for its capacity. */
    std::vector<MailKey> mailKeys_;
    Tick lookahead_ = kMaxTick;

    // -- Round barrier -------------------------------------------------
    // Each round is two phases: the first completes once the driving
    // thread has written roundHorizon_ (or shutdown_), the second once
    // every participant has run its shard group. Phase completion
    // orders these writes and every shard's state between threads.
    const unsigned nthreads_;
    std::barrier<> barrier_;
    std::vector<std::thread> workers_;
    Tick roundHorizon_ = 0;
    bool shutdown_ = false;
};

} // namespace uqsim

#endif // UQSIM_CORE_PARALLEL_HH
