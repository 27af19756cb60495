/**
 * @file
 * A standalone single-shard world's engine.
 *
 * A Simulator is a one-shard ParallelSimulator seen through its shard 0
 * SimContext: it owns the engine and has no queue, clock or run loop of
 * its own. Everything it offers (now, schedule, scheduleAt, run,
 * runUntil, runFor, addClockObserver, eventsExecuted, executionDigest,
 * queue) is the context's, and it passes wherever model code takes a
 * SimContext. Tests and small drivers use it; apps::World owns a
 * ParallelSimulator directly.
 */

#ifndef UQSIM_CORE_SIMULATOR_HH
#define UQSIM_CORE_SIMULATOR_HH

#include "core/parallel.hh"
#include "core/sim_context.hh"

namespace uqsim {

/**
 * One-shard engine plus the context that schedules into it.
 */
class Simulator : public SimContext
{
  public:
    Simulator() { SimContext::operator=(owned_.context(0)); }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

  private:
    ParallelSimulator owned_{ParallelSimulator::Config{}};
};

} // namespace uqsim

#endif // UQSIM_CORE_SIMULATOR_HH
