/**
 * @file
 * Unified metrics registry: the single sink every subsystem reports
 * through (request accounting, tracing collector, connection pools,
 * keyed data tiers, autoscaler).
 *
 * Names are dotted lower-case paths, most-general first:
 * "subsystem.metric" or "subsystem.tier.metric" (e.g.
 * "rpc.pool.blocked_acquires", "data.posts-memcached.hits"). Callers
 * resolve a metric once — counter()/gauge() get-or-create by name and
 * return a reference with a stable address — and then update through
 * the reference, so hot-path updates are O(1) and allocation-free.
 * Snapshots (dump/writeJson) iterate in name order, keeping all
 * reporting deterministic.
 */

#ifndef UQSIM_CORE_METRICS_HH
#define UQSIM_CORE_METRICS_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "core/stats.hh"

namespace uqsim {

/**
 * Owns named counters and gauges.
 */
class MetricsRegistry
{
  public:
    /** Get or create a counter (stable reference). */
    Counter &counter(const std::string &name);

    /** Get or create a gauge (stable reference). */
    Gauge &gauge(const std::string &name);

    /** Whether a metric of any kind with this name exists. */
    bool has(const std::string &name) const;

    /** Registered metrics of all kinds. */
    std::size_t size() const { return counters_.size() + gauges_.size(); }

    /** Human-readable dump, one metric per line, in name order. */
    void dump(std::ostream &os) const;

    /** JSON snapshot: {"counters":{name:value,...},"gauges":{...}}. */
    void writeJson(std::ostream &os) const;

    /**
     * writeJson into a string, byte-stable: keys are emitted in
     * sorted (std::map) order unconditionally, strings are fully
     * JSON-escaped (quotes, backslashes, control characters), and the
     * stream is freshly default-constructed so no ambient locale or
     * formatting state can perturb the bytes. Two snapshots of equal
     * registries are equal byte-for-byte on every platform.
     */
    std::string snapshotJson() const;

    /** Zero every metric (names and references stay valid). */
    void resetAll();

  private:
    // std::map keeps snapshots name-ordered; unique_ptr keeps metric
    // addresses stable across later registrations.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace uqsim

#endif // UQSIM_CORE_METRICS_HH
