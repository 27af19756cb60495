#include "core/simulator.hh"

#include "core/logging.hh"

namespace uqsim {

void
Simulator::pastScheduleError(Tick when) const
{
    panic(strCat("scheduleAt(when=", when, ") is ", now_ - when,
                 " ticks in the past (now=", now_, ")"));
}

void
Simulator::addClockObserver(Tick interval, ClockObserverFn fn)
{
    if (interval == 0)
        panic("addClockObserver with zero interval");
    // The first boundary is one interval in; boundaries already behind
    // the clock would sample a world the observer never saw evolve.
    Tick first = interval;
    while (first <= now_)
        first += interval;
    observers_.push_back(ClockObserver{interval, first, std::move(fn)});
    nextBoundary_ = std::min(nextBoundary_, first);
}

void
Simulator::run()
{
    if (observers_.empty()) {
        // Observer-free fast path: no per-event boundary check.
        while (!queue_.empty())
            queue_.runNext(now_);
        return;
    }
    while (!queue_.empty()) {
        // Boundaries <= the next event time are due: every event
        // before them has executed, nothing at/after them has.
        maybeFireObservers(queue_.nextTick());
        queue_.runNext(now_);
    }
}

void
Simulator::runUntil(Tick deadline)
{
    if (deadline < now_)
        panic(strCat("runUntil(", deadline, ") in the past; now=", now_));
    if (observers_.empty()) {
        while (!queue_.empty() && queue_.nextTick() <= deadline)
            queue_.runNext(now_);
        now_ = deadline;
        return;
    }
    while (!queue_.empty() && queue_.nextTick() <= deadline) {
        maybeFireObservers(queue_.nextTick());
        queue_.runNext(now_);
    }
    now_ = deadline;
    // The window is fully executed: flush every boundary it covers.
    maybeFireObservers(deadline);
}

} // namespace uqsim
