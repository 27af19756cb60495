/**
 * @file
 * Arms a fault schedule against a running App.
 *
 * The injector is strictly opt-in: constructing one does nothing, and
 * arm() installs only the hooks its schedule actually needs (the
 * request-fault hook only if error windows exist, the network drop
 * hook only if partitions exist, crash tracking only if crashes
 * exist). A run with an empty schedule therefore executes the exact
 * same event sequence — same digest — as a run without an injector.
 *
 * All probabilistic decisions (error-rate draws, packet-loss draws)
 * come from the injector's own deterministic RNG stream, derived from
 * the run seed, so the same seed + schedule replays bit-identically.
 */

#ifndef UQSIM_FAULT_INJECTOR_HH
#define UQSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "core/metrics.hh"
#include "core/rng.hh"
#include "fault/fault.hh"
#include "service/app.hh"

namespace uqsim::fault {

/**
 * Schedules fault windows onto an App's simulator and implements the
 * runtime hooks that realize them.
 */
class FaultInjector : public service::RequestFaultHook
{
  public:
    /**
     * @param app  the application under test
     * @param seed run seed; the injector derives its own stream
     */
    FaultInjector(service::App &app, std::uint64_t seed);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;
    ~FaultInjector() override;

    /** Append one fault window (before arm()). */
    void add(FaultSpec spec);

    /** Append a whole schedule (before arm()). */
    void addAll(const std::vector<FaultSpec> &specs);

    /** The armed (or pending) schedule. */
    const std::vector<FaultSpec> &schedule() const { return schedule_; }

    /**
     * Validate the schedule against the app's topology (unknown
     * services / out-of-range instances are fatal) and schedule every
     * window's start/end events. Call exactly once, before running.
     */
    void arm();

    // -- service::RequestFaultHook ---------------------------------------

    /** Bernoulli draw against the active error windows for @p svc. */
    bool shouldFailRequest(const service::Microservice &svc) override;

    // -- Introspection ----------------------------------------------------

    /** Arrivals failed through the error-rate hook. */
    std::uint64_t requestsFailed() const { return requestsFailed_->value(); }

    /** Messages dropped by active partitions. */
    std::uint64_t messagesDropped() const
    {
        return messagesDropped_->value();
    }

    /** Crashes executed so far. */
    std::uint64_t crashes() const { return crashes_->value(); }

  private:
    /** @return true if any partition window wants this message dead. */
    bool shouldDropMessage(unsigned src, unsigned dst);

    /**
     * Replica-quorum link oracle: a pair of servers is severed only by
     * an active *deterministic* partition window (loss >= 1), since a
     * lossy link still eventually carries acks and heartbeats.
     */
    bool linkSevered(unsigned server_a, unsigned server_b) const;

    /**
     * Resolve a role-addressed crash to a concrete instance at fire
     * time. @return -1 when no live member matches (no-op crash).
     */
    int resolveCrashVictim(const FaultSpec &spec);

    /** Tell every replicated tier that connectivity changed. */
    void notifyTopologyChange();

    void startFault(std::size_t idx);
    void endFault(std::size_t idx);

    service::App &app_;
    /** Derived stream; never forked from the app's RNGs. */
    Rng rng_;
    std::vector<FaultSpec> schedule_;
    /** Parallel to schedule_: whether each window is currently live. */
    std::vector<bool> live_;
    /**
     * Parallel to schedule_: the instance a role-addressed crash
     * resolved to at fire time (-1 = none), so the window's end
     * restarts the actual victim even after leadership moved on.
     */
    std::vector<int> resolved_;
    bool armed_ = false;
    unsigned active_ = 0;

    Counter *requestsFailed_ = nullptr;
    Counter *messagesDropped_ = nullptr;
    Counter *crashes_ = nullptr;
};

} // namespace uqsim::fault

#endif // UQSIM_FAULT_INJECTOR_HH
