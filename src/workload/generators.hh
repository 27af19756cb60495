/**
 * @file
 * Open- and closed-loop workload generators.
 *
 * The paper drives all services with open-loop generators (requests
 * arrive regardless of completions - the right model for tail-latency
 * studies) plus real user traffic for the Social Network deployment.
 * The open-loop generator here is Poisson with a time-varying rate
 * hook used for the diurnal replay of Fig 21.
 */

#ifndef UQSIM_WORKLOAD_GENERATORS_HH
#define UQSIM_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "core/types.hh"
#include "service/app.hh"
#include "workload/user_population.hh"

namespace uqsim::workload {

// -- Arrival processes --------------------------------------------------

/**
 * Which stochastic process produces request inter-arrival gaps.
 *
 * Poisson is the legacy default and the only process the open-loop
 * generator runs when no ArrivalProcess is attached — that path is
 * byte-identical to every pre-arrival-library build. The other three
 * model the load regimes the paper's cluster-management studies need:
 * MMPP for bursty traffic, diurnal curves for the Fig 21 replay, and
 * flash crowds for sudden-overload experiments.
 */
enum class ArrivalKind
{
    Poisson, ///< homogeneous Poisson at the configured rate
    Mmpp,    ///< 2-state Markov-modulated Poisson (bursty)
    Diurnal, ///< rate-modulated Poisson over a compressed day curve
    Flash,   ///< Poisson with a ramped flash-crowd multiplier
};

/** Resolve an arrival-process name; @return false if unknown. */
bool arrivalKindByName(const std::string &name, ArrivalKind &out);

/** The canonical name of @p kind ("poisson", "mmpp", ...). */
const char *arrivalKindName(ArrivalKind kind);

/**
 * Declarative arrival-process selection (the scenario `arrival:`
 * block / the --arrival-* flags). Fields beyond the selected kind are
 * ignored; every default is valid.
 */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;

    // -- MMPP(2) ----------------------------------------------------
    /** Peak-state rate multiplier over the base state (>= 1). */
    double burst = 4.0;
    /** Stationary fraction of time spent in the peak state, (0, 1). */
    double duty = 0.1;
    /** Mean sojourn in the peak state per visit. */
    Tick dwell = 200 * kTicksPerMs;

    // -- diurnal ----------------------------------------------------
    /** Replay window mapped to one compressed "day". */
    Tick period = 10 * kTicksPerSec;
    /** Night-time fraction of peak load, (0, 1]. */
    double low = 0.2;

    // -- flash crowd ------------------------------------------------
    Tick flashAt = 2 * kTicksPerSec;   ///< onset of the crowd
    Tick flashRamp = 200 * kTicksPerMs; ///< linear ramp-up time
    double flashMult = 8.0;            ///< peak rate multiplier (>= 1)
    Tick flashHold = 1 * kTicksPerSec; ///< time at peak before decay
};

/**
 * A stream of inter-arrival gaps with its own RNG stream, so that
 * attaching a process never perturbs the generator's query-mix or
 * user-sampling draws and generation stays seed-deterministic.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * The next inter-arrival gap (>= 1 tick) for an arrival scheduled
     * at absolute time @p now, advancing the process state.
     */
    virtual Tick nextGap(Tick now) = 0;

    /** Long-run mean arrival rate in requests/second. */
    virtual double meanRate() const = 0;

    virtual ArrivalKind kind() const = 0;

    /**
     * Build the process @p config selects with long-run mean rate
     * @p qps (flash crowds: base rate @p qps, the crowd adds load) and
     * a dedicated RNG stream derived from @p seed.
     */
    static std::unique_ptr<ArrivalProcess>
    make(const ArrivalConfig &config, double qps, std::uint64_t seed);
};

/** Homogeneous Poisson arrivals. */
class PoissonProcess final : public ArrivalProcess
{
  public:
    PoissonProcess(double qps, std::uint64_t seed);

    Tick nextGap(Tick now) override;
    double meanRate() const override { return qps_; }
    ArrivalKind kind() const override { return ArrivalKind::Poisson; }

  private:
    double qps_;
    Rng rng_;
};

/**
 * 2-state Markov-modulated Poisson process. The modulating chain
 * alternates exponentially distributed sojourns in a base state (rate
 * lowRate()) and a peak state (rate highRate() = burst * lowRate());
 * rates are solved so the stationary mean is exactly the requested
 * qps. Sampling is exact: a gap drawn in one state that crosses the
 * next modulation switch is discarded at the switch point and redrawn
 * at the new state's rate (memorylessness makes the restart exact).
 */
class MmppProcess final : public ArrivalProcess
{
  public:
    /**
     * @param qps    stationary mean arrival rate
     * @param burst  peak/base rate ratio (>= 1; 1 = pure Poisson)
     * @param duty   stationary peak-state time fraction, in (0, 1)
     * @param dwell  mean peak-state sojourn per visit (> 0)
     */
    MmppProcess(double qps, double burst, double duty, Tick dwell,
                std::uint64_t seed);

    Tick nextGap(Tick now) override;
    double meanRate() const override { return qps_; }
    ArrivalKind kind() const override { return ArrivalKind::Mmpp; }

    /** Base-state arrival rate (req/s). */
    double lowRate() const { return lowRate_; }

    /** Peak-state arrival rate (req/s). */
    double highRate() const { return highRate_; }

    /**
     * The asymptotic index of dispersion of counts,
     *   IDC = 1 + 2 pi_l pi_h (r_h - r_l)^2 / (mean * (q_lh + q_hl)),
     * the closed-form burstiness index the validation tier pins the
     * empirical window-count dispersion against. 1 when burst == 1.
     */
    double idc() const;

  private:
    double rate(bool high) const { return high ? highRate_ : lowRate_; }

    double qps_;
    double lowRate_;
    double highRate_;
    double dwellLowSec_;  ///< mean base-state sojourn (seconds)
    double dwellHighSec_; ///< mean peak-state sojourn (seconds)
    Rng rng_;
    bool high_ = false;       ///< current modulation state
    double switchAt_ = 0.0;   ///< next state switch (ticks, fractional)
};

/**
 * Rate-modulated ("nonhomogeneous") Poisson arrivals: each gap is
 * drawn exponentially at the multiplier-scaled rate in effect when it
 * is drawn; exact whenever gaps are short against the modulation
 * period.
 */
class ShapedProcess final : public ArrivalProcess
{
  public:
    /**
     * @param qps    mean rate when the multiplier averages 1
     * @param shape  rate multiplier at an absolute tick
     * @param mean   long-run average of @p shape (for meanRate())
     */
    ShapedProcess(double qps, ArrivalKind kind,
                  std::function<double(Tick)> shape, double mean,
                  std::uint64_t seed);

    Tick nextGap(Tick now) override;
    double meanRate() const override { return qps_ * shapeMean_; }
    ArrivalKind kind() const override { return kind_; }

  private:
    double qps_;
    ArrivalKind kind_;
    std::function<double(Tick)> shape_;
    double shapeMean_;
    Rng rng_;
};

/**
 * The flash-crowd rate multiplier: 1 until @p at, a linear ramp to
 * @p mult over @p ramp, a plateau of @p hold, then an exponential
 * decay back toward 1 with time constant @p ramp.
 */
double flashMultiplierAt(Tick t, Tick at, Tick ramp, double mult,
                         Tick hold);

/**
 * Weighted query-type mix.
 */
class QueryMix
{
  public:
    /** Uniform over the app's registered query types. */
    static QueryMix fromApp(const service::App &app);

    /** Explicit weights (normalized internally). */
    explicit QueryMix(std::vector<double> weights);

    /** Draw a query-type index. */
    unsigned sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/**
 * Open-loop Poisson request generator.
 */
class OpenLoopGenerator
{
  public:
    OpenLoopGenerator(service::App &app, QueryMix mix, UserPopulation users,
                      std::uint64_t seed);

    /** Set the arrival rate (may change while running). */
    void setQps(double qps);
    double qps() const { return qps_; }

    /**
     * Drive inter-arrival gaps from @p process instead of the built-in
     * Poisson sampler. The process owns the rate (qps() no longer
     * applies) and draws from its own RNG stream, so the generator's
     * query-mix/user draws are unperturbed. Null restores the built-in
     * byte-identical legacy path.
     */
    void setArrivalProcess(std::unique_ptr<ArrivalProcess> process);

    /** Begin injecting; keeps going until stop(). */
    void start();

    /** Cease injecting (in-flight requests drain on their own). */
    void stop();

    bool running() const { return running_; }

    std::uint64_t generated() const { return generated_; }

  private:
    void scheduleNext();

    service::App &app_;
    QueryMix mix_;
    UserPopulation users_;
    Rng rng_;
    double qps_ = 100.0;
    std::unique_ptr<ArrivalProcess> arrival_;
    bool running_ = false;
    std::uint64_t generated_ = 0;
    EventHandle pending_;
};

/**
 * Closed-loop generator: @p concurrency virtual users, each reissuing
 * after a think time. Used to contrast with open-loop behaviour in
 * tests and ablations.
 */
class ClosedLoopGenerator
{
  public:
    ClosedLoopGenerator(service::App &app, QueryMix mix,
                        UserPopulation users, unsigned concurrency,
                        Dist think_time_ns, std::uint64_t seed);

    void start();
    void stop();

    std::uint64_t generated() const { return generated_; }

  private:
    void issueOne(std::uint64_t user);

    service::App &app_;
    QueryMix mix_;
    UserPopulation users_;
    unsigned concurrency_;
    Dist thinkTime_;
    Rng rng_;
    bool running_ = false;
    std::uint64_t generated_ = 0;
};

/**
 * Compressed diurnal load shape (Fig 21 bottom): two peaks over the
 * replay window, normalized to [low, 1].
 */
class DiurnalShape
{
  public:
    /**
     * @param period   replay window mapped to one "day"
     * @param low      night-time fraction of peak load
     */
    DiurnalShape(Tick period, double low);

    /** Rate multiplier at time @p t. */
    double at(Tick t) const;

    /**
     * The curve's average multiplier over one period (deterministic
     * trapezoid sum). The diurnal ArrivalProcess divides by this so
     * its long-run mean rate equals the configured qps exactly.
     */
    double meanMultiplier() const;

  private:
    Tick period_;
    double low_;
};

} // namespace uqsim::workload

#endif // UQSIM_WORKLOAD_GENERATORS_HH
