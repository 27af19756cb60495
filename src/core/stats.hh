/**
 * @file
 * Lightweight statistics primitives used throughout the models.
 *
 * Besides plain counters and gauges, the package offers a
 * time-weighted gauge (for utilization-style metrics that must be
 * integrated over simulated time). Named ownership and uniform
 * snapshots live in MetricsRegistry (core/metrics.hh).
 */

#ifndef UQSIM_CORE_STATS_HH
#define UQSIM_CORE_STATS_HH

#include <cstdint>

#include "core/types.hh"

namespace uqsim {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A gauge integrated over simulated time.
 *
 * Typical use: CPU utilization. Call update(now, v) whenever the value
 * changes; average(now) returns the time-weighted mean since the last
 * reset. Also tracks the peak value seen.
 */
class TimeWeightedGauge
{
  public:
    /** Record that the value becomes @p v at time @p now. */
    void update(Tick now, double v);

    /** Time-weighted average over [resetTime, now]. */
    double average(Tick now) const;

    /** Current value. */
    double current() const { return value_; }

    /** Largest value ever set since reset. */
    double peak() const { return peak_; }

    /** Restart integration at @p now keeping the current value. */
    void reset(Tick now);

  private:
    double value_ = 0.0;
    double peak_ = 0.0;
    double integral_ = 0.0;
    Tick lastUpdate_ = 0;
    Tick resetTime_ = 0;
};

} // namespace uqsim

#endif // UQSIM_CORE_STATS_HH
