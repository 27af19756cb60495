/**
 * @file
 * Server power and energy model.
 *
 * The paper's Fig 12 studies the latency side of RAPL frequency
 * capping; this module supplies the other half of that trade-off so
 * energy-proportionality ablations can be run: per-server power as a
 * function of utilization and frequency, integrated into energy over
 * simulated time.
 *
 * Model: P(t) = P_idle + (P_peak - P_idle) * u(t) * (f/f_nom)^3
 * with u(t) the instantaneous core utilization. The cubic frequency
 * term is the classic dynamic-power approximation (V roughly
 * proportional to f in the DVFS range).
 */

#ifndef UQSIM_CPU_POWER_HH
#define UQSIM_CPU_POWER_HH

#include <vector>

#include "core/sim_context.hh"
#include "core/types.hh"
#include "cpu/server.hh"

namespace uqsim::cpu {

/** Static power parameters of one server. */
struct PowerModel
{
    /** Power at zero utilization (fans, DRAM, uncore), watts. */
    double idleWatts = 120.0;

    /** Power at full utilization and nominal frequency, watts. */
    double peakWatts = 400.0;

    /** Two-socket Xeon defaults (E5-2660v3-class). */
    static PowerModel xeon() { return PowerModel{}; }

    /** Cavium ThunderX board. */
    static PowerModel
    thunderx()
    {
        return PowerModel{90.0, 210.0};
    }

    /** Drone SoC. */
    static PowerModel
    edgeArm()
    {
        return PowerModel{2.0, 8.0};
    }

    /** Instantaneous power at utilization @p u and frequency @p f. */
    double
    watts(double u, double freq_mhz, double nominal_mhz) const
    {
        const double fr = freq_mhz / nominal_mhz;
        return idleWatts + (peakWatts - idleWatts) * u * fr * fr * fr;
    }
};

/**
 * Periodically samples a cluster's utilization and integrates energy.
 */
class EnergyMeter
{
  public:
    /**
     * @param sim      owning simulator
     * @param cluster  servers to meter
     * @param model    per-server power parameters
     * @param interval sampling period
     */
    EnergyMeter(SimContext ctx, Cluster &cluster, PowerModel model,
                Tick interval = 100 * kTicksPerMs);

    /** Begin sampling. */
    void start();
    void stop();

    /** Total cluster energy integrated so far, joules. */
    double totalJoules() const { return joules_; }

    /** Mean cluster power over the metered window, watts. */
    double averageWatts() const;

    /** Reset the integration. */
    void reset();

  private:
    void sampleOnce();

    SimContext ctx_;
    Cluster &cluster_;
    PowerModel model_;
    Tick interval_;
    bool running_ = false;
    EventHandle pending_;
    double joules_ = 0.0;
    Tick meteredTime_ = 0;
    std::vector<Tick> lastBusy_;
};

} // namespace uqsim::cpu

#endif // UQSIM_CPU_POWER_HH
