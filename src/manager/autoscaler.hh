/**
 * @file
 * Utilization-threshold autoscaler (EC2-default style, Sec 6/7).
 *
 * The policy is deliberately the naive one the paper critiques: when a
 * watched tier's worker-thread occupancy exceeds a threshold, add an
 * instance of that tier after a startup delay. It fixes genuine
 * single-tier saturation (Fig 17A) but mis-scales under backpressure
 * (Fig 17B) and takes long to find the culprit of a cascading
 * violation (Fig 20).
 */

#ifndef UQSIM_MANAGER_AUTOSCALER_HH
#define UQSIM_MANAGER_AUTOSCALER_HH

#include <functional>
#include <string>
#include <vector>

#include "core/types.hh"
#include "cpu/server.hh"
#include "service/app.hh"

namespace uqsim::manager {

/** A scale-out decision, for timeline reporting. */
struct ScaleEvent
{
    Tick time = 0;
    std::string service;
    unsigned newInstanceCount = 0;
    double signalValue = 0.0;
};

/**
 * Threshold autoscaler over per-tier thread occupancy.
 *
 * Each decision reads Microservice::meanOccupancy() of every watched
 * tier at the instant the decision event runs: busy-or-blocked worker
 * threads over capacity, the signal that looks saturated both when a
 * tier is and when it is merely parked on a slow dependency.
 */
class AutoScaler
{
  public:
    struct Config
    {
        /** Scale-out trigger threshold (EC2 default-ish 0.7). */
        double threshold = 0.7;

        /** Decision period. */
        Tick interval = kTicksPerSec;

        /** Time before a new instance starts serving. */
        Tick startupDelay = 4 * kTicksPerSec;

        /** Minimum time between scale-outs of the same tier. */
        Tick cooldown = 5 * kTicksPerSec;

        /**
         * Scale-out budget per decision round (0 = unlimited): real
         * autoscalers upsize gradually, which is what makes them slow
         * to locate the culprit tier in Fig 20.
         */
        unsigned maxScaleOutsPerRound = 0;
    };

    /**
     * @param app     application to scale
     * @param placer  returns the server to place each new instance on
     */
    AutoScaler(service::App &app, Config config,
               std::function<cpu::Server &()> placer);

    /** Watch a tier (untracked tiers never scale). */
    void watch(const std::string &service);

    /** Watch every non-stateful tier of the app. */
    void watchAllStateless();

    /** Begin making decisions (the first one interval from now). */
    void start();
    void stop();

    /** All scale-outs performed, in time order. */
    const std::vector<ScaleEvent> &events() const { return events_; }

  private:
    /** One watched tier and the time it last scaled (0 = never). */
    struct Watched
    {
        service::Microservice *svc = nullptr;
        Tick lastScale = 0;
    };

    void decideOnce();

    service::App &app_;
    Config config_;
    std::function<cpu::Server &()> placer_;
    std::vector<Watched> watched_;
    std::vector<ScaleEvent> events_;
    bool running_ = false;
    EventHandle pending_;
};

} // namespace uqsim::manager

#endif // UQSIM_MANAGER_AUTOSCALER_HH
