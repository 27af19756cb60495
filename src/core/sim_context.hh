/**
 * @file
 * The scheduling handle every model component holds.
 *
 * A SimContext names the execution shard a component belongs to and is
 * the only scheduling surface model code may use: components never
 * touch an EventQueue directly. The handle is a cheap value type over
 * (event queue, clock, shard id, engine), minted by
 * ParallelSimulator::context(i): it schedules into shard i's own queue
 * and clock. There is one engine; a single-shard world is a one-shard
 * ParallelSimulator, and a Simulator (core/simulator.hh) is one of
 * those seen through its shard 0 context. Cross-shard communication
 * goes through postToShard(), which enforces the conservative
 * lookahead and delivers through the engine's outboxes at the next
 * synchronization barrier.
 *
 * Scheduling, clock reads and postToShard() are shard-local and
 * wait-free: a post appends to an outbox only the posting shard
 * writes, and takes no lock. See docs/PARALLEL.md.
 */

#ifndef UQSIM_CORE_SIM_CONTEXT_HH
#define UQSIM_CORE_SIM_CONTEXT_HH

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/event_queue.hh"
#include "core/inline_function.hh"
#include "core/types.hh"

namespace uqsim {

class ParallelSimulator;

/**
 * Callback of postToShard(). Captures up to kMailCallbackBytes are
 * carried inline from the sending shard to the receiving one; the
 * forward leg of a cross-shard RPC (a peer pointer and a marshalled
 * service::RemoteCall) is the largest and fits exactly.
 */
inline constexpr std::size_t kMailCallbackBytes = 128;
using MailCallback = InlineFunction<void(), kMailCallbackBytes>;

/** Callback observing the clock at one interval boundary. */
using ClockObserverFn = std::function<void(Tick boundary)>;

/**
 * Shard-addressed scheduling handle (see file comment).
 */
class SimContext
{
  public:
    /** Null handle; must be rebound before use. */
    SimContext() = default;

    /** @return the current simulated time of this shard. */
    Tick now() const { return *now_; }

    /**
     * Schedule a callback @p delay ticks from now on this shard.
     * @return a cancellation handle.
     */
    template <typename F>
    EventHandle
    schedule(Tick delay, F &&cb)
    {
        return queue_->schedule(*now_ + delay, std::forward<F>(cb));
    }

    /**
     * Schedule a callback at absolute time @p when on this shard.
     * Scheduling in the past is an internal error; the panic reports
     * the offending when/now ticks and the shard.
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&cb)
    {
        if (when < *now_)
            pastScheduleError(when);
        return queue_->schedule(when, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb on shard @p dst, @p delay ticks from now.
     *
     * Same-shard posts are scheduled at once. Cross-shard posts
     * require `dst < shardCount()` and `delay >= lookahead()` (the
     * conservative synchronization window); violating either is an
     * internal error. Cross-shard events are buffered in this shard's
     * outbox for @p dst and merged into its queue at the next barrier
     * in deterministic (when, source shard, source sequence) order.
     * Either way the callback runs from a slot of @p dst's own, so no
     * cancellation handle is returned.
     */
    void postToShard(unsigned dst, Tick delay, MailCallback cb);

    /** @return this component's shard id (0 in single-shard worlds). */
    unsigned shard() const { return shard_; }

    /** @return the number of shards in the world. */
    unsigned shardCount() const;

    /**
     * @return the conservative lookahead: the minimum cross-shard
     * delay, i.e. the minimum inter-shard network latency. kMaxTick
     * when the world has no cross-shard channels (always with one
     * shard).
     */
    Tick lookahead() const;

    /**
     * Register a periodic clock observer on this shard: @p fn fires at
     * every multiple of @p interval of this shard's clock, between
     * events rather than as one, so the execution digest is untouched
     * (see ParallelSimulator::addClockObserver). The observer must be
     * read-only over model state and must outlive all driving of the
     * world; there is no unregistration. Register before running.
     */
    void addClockObserver(Tick interval, ClockObserverFn fn);

    // -- Driver surface (top-level harnesses only, never event code) --

    /**
     * Run the *whole world* (every shard) until its queues drain.
     * Driver-only: must not be called from inside an event callback.
     */
    void run();

    /** Run the whole world up to @p deadline (clocks end there). */
    void runUntil(Tick deadline);

    /** Run the whole world for @p duration past its latest shard
     *  clock (ParallelSimulator::runFor). */
    void runFor(Tick duration);

    // -- Shard-local observability ------------------------------------

    /** Events executed by *this shard* so far. */
    std::uint64_t eventsExecuted() const { return queue_->executedCount(); }

    /**
     * This shard's running FNV-1a execution digest (order-sensitive
     * within the shard). The world-level digest composes these; see
     * ParallelSimulator::executionDigest().
     */
    std::uint64_t executionDigest() const
    {
        return queue_->executionDigest();
    }

    /** @return this shard's underlying event queue (stats, tests). */
    const EventQueue &queue() const { return *queue_; }

  private:
    friend class ParallelSimulator;

    /** Shard-addressed context; minted by ParallelSimulator. */
    SimContext(EventQueue &queue, const Tick &now, unsigned shard,
               ParallelSimulator &engine)
        : queue_(&queue), now_(&now), shard_(shard), engine_(&engine)
    {}

    [[noreturn]] void pastScheduleError(Tick when) const;

    EventQueue *queue_ = nullptr;
    const Tick *now_ = nullptr;
    unsigned shard_ = 0;
    ParallelSimulator *engine_ = nullptr;
};

} // namespace uqsim

#endif // UQSIM_CORE_SIM_CONTEXT_HH
