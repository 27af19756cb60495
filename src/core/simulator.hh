/**
 * @file
 * The top-level simulation driver.
 *
 * A Simulator owns the event queue and the simulated clock of a
 * single-shard world. Model components do not hold it directly: they
 * schedule through a SimContext (core/sim_context.hh), which converts
 * implicitly from `Simulator &`. The driver (test, example or bench)
 * calls run(), runUntil() or runFor(); sharded worlds use
 * ParallelSimulator (core/parallel.hh) instead.
 */

#ifndef UQSIM_CORE_SIMULATOR_HH
#define UQSIM_CORE_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/event_queue.hh"
#include "core/types.hh"

namespace uqsim {

/** Callback observing the clock at one interval boundary. */
using ClockObserverFn = std::function<void(Tick boundary)>;

/**
 * A periodic clock observer: fires at every multiple of @p interval,
 * *between* events, not as one. When the callback for boundary B runs,
 * every event with time < B has executed and no event with time >= B
 * has — the callback sees the world exactly as of instant B. Because
 * observers never enter the event queue, they leave the execution
 * digest untouched: a run with observers is bit-identical to one
 * without (the basis of the obs layer's digest guarantee).
 *
 * Observers must not schedule events or mutate model state; they are a
 * read-only sampling surface. Firing is lazy — a boundary with no
 * event at or after it yet fires as soon as one appears, or at the
 * runUntil() deadline — and deterministic: boundaries fire in
 * registration order at equal ticks.
 */
struct ClockObserver
{
    Tick interval = 0;
    Tick next = 0;
    ClockObserverFn fn;
};

/** Fire every observer boundary <= @p limit (registration order). */
inline void
fireClockObservers(std::vector<ClockObserver> &observers, Tick limit)
{
    for (ClockObserver &o : observers) {
        while (o.next <= limit) {
            o.fn(o.next);
            if (o.next > kMaxTick - o.interval) {
                o.next = kMaxTick; // saturate instead of wrapping
                break;
            }
            o.next += o.interval;
        }
    }
}

/** The earliest pending boundary (kMaxTick when none). */
inline Tick
nextClockBoundary(const std::vector<ClockObserver> &observers)
{
    Tick next = kMaxTick;
    for (const ClockObserver &o : observers)
        next = std::min(next, o.next);
    return next;
}

/**
 * Discrete-event simulation driver: clock + event queue.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback @p delay ticks from now.
     * @return a cancellation handle.
     */
    template <typename F>
    EventHandle
    schedule(Tick delay, F &&cb)
    {
        return queue_.schedule(now_ + delay, std::forward<F>(cb));
    }

    /**
     * Schedule a callback at absolute time @p when.
     * Scheduling in the past is an internal error.
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&cb)
    {
        if (when < now_)
            pastScheduleError(when);
        return queue_.schedule(when, std::forward<F>(cb));
    }

    /** Run until the event queue drains. */
    void run();

    /**
     * Run events with firing time <= @p deadline, then set the clock
     * to @p deadline. Events scheduled beyond the deadline stay queued.
     */
    void runUntil(Tick deadline);

    /** Convenience wrapper: runUntil(now() + duration). */
    void runFor(Tick duration) { runUntil(now_ + duration); }

    /**
     * Register a periodic clock observer firing every @p interval
     * ticks, starting at tick @p interval (see ClockObserver for the
     * exact semantics and restrictions). Register before driving the
     * simulation; zero intervals are an internal error.
     */
    void addClockObserver(Tick interval, ClockObserverFn fn);

    /** @return the underlying event queue (stats, tests). */
    const EventQueue &queue() const { return queue_; }

    /** @return number of events executed so far. */
    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

    /**
     * Running FNV-1a hash over (tick, sequence) of every executed
     * event: a cheap, order-sensitive fingerprint of the run. Two runs
     * with the same seed must produce identical digests; see
     * tests/determinism_test.cc.
     */
    std::uint64_t executionDigest() const
    {
        return queue_.executionDigest();
    }

  private:
    /** SimContext schedules straight into the queue/clock. */
    friend class SimContext;

    [[noreturn]] void pastScheduleError(Tick when) const;

    /**
     * Fire boundaries <= @p limit. The cached earliest-boundary tick
     * keeps the per-event cost of an idle observer at one compare.
     */
    void
    maybeFireObservers(Tick limit)
    {
        if (limit < nextBoundary_)
            return;
        fireClockObservers(observers_, limit);
        nextBoundary_ = nextClockBoundary(observers_);
    }

    EventQueue queue_;
    Tick now_ = 0;
    /** Periodic sampling callbacks (empty on the common path). */
    std::vector<ClockObserver> observers_;
    /** Earliest pending boundary (kMaxTick while none registered). */
    Tick nextBoundary_ = kMaxTick;
};

} // namespace uqsim

#endif // UQSIM_CORE_SIMULATOR_HH
