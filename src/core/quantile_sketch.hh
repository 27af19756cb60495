/**
 * @file
 * Streaming latency-quantile sketch: the one quantile structure in
 * uqsim. Every printed percentile (end-to-end, per query type, per
 * service in the trace analysis) and every telemetry series column is
 * answered by it.
 *
 * An HDR-style fixed-footprint sketch. Values below 128 are exact;
 * each larger octave [2^m, 2^(m+1)) is split into 64 linear
 * sub-buckets 2^(m-6) wide. quantile() answers with the upper bound
 * of the bucket holding the requested rank, clamped to [min, max], so
 * it never understates the sample at that rank and overstates it by
 * less than relativeErrorBound() = 1/64 (1.5625%) of it; the worst
 * case is just above each power of two. Count, min, max and mean are
 * exact. record() is O(1) and never allocates; every sample is
 * answered from one table, so the sketch is exactly mergeable and
 * answers any quantile from one pass.
 *
 * reset(), merge() and the quantile scans touch only the index range
 * recorded since the last reset, so the telemetry pipeline's
 * per-interval snapshot-and-reset stays cheap.
 */

#ifndef UQSIM_CORE_QUANTILE_SKETCH_HH
#define UQSIM_CORE_QUANTILE_SKETCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uqsim {

/**
 * Fixed-precision streaming quantile sketch over non-negative values.
 */
class QuantileSketch
{
  public:
    QuantileSketch();

    /** Record one sample, O(1). */
    void record(std::uint64_t value);

    /** Samples recorded since the last reset. */
    std::uint64_t count() const { return count_; }

    /** Smallest recorded value (0 if empty; exact). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest recorded value (0 if empty; exact). */
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /** Arithmetic mean (0 if empty; exact). */
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1] (q <= 0 answers min, q >= 1
     * max; 0 if empty): the upper bound of the bucket holding the
     * requested rank, clamped to [min, max].
     */
    std::uint64_t quantile(double q) const;

    /**
     * Answer @p n (at most 16) quantiles, in any order, in one pass
     * over the touched bucket range — equivalent to n quantile()
     * calls, but the table is scanned once. This is what keeps the
     * per-interval snapshot (p50/p95/p99 + the SLO quantile) cheap
     * enough for the telemetry pipeline's per-boundary budget.
     */
    void quantiles(const double *qs, std::size_t n,
                   std::uint64_t *out) const;

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
    std::uint64_t p99() const { return quantile(0.99); }

    /** Merge another sketch into this one (exact). */
    void merge(const QuantileSketch &other);

    /** Forget all samples; O(index range touched since last reset). */
    void reset();

    /** The guaranteed relative error of quantile(): 1/64. */
    static constexpr double relativeErrorBound()
    {
        return 1.0 / static_cast<double>(kSubBuckets);
    }

  private:
    /** Linear sub-buckets per octave: 2^6. */
    static constexpr unsigned kSubBucketBits = 6;
    static constexpr std::size_t kSubBuckets = std::size_t{1}
                                               << kSubBucketBits;
    /** The exact region plus one row per octave of 2^6..2^63. */
    static constexpr std::size_t kBuckets =
        (64 - kSubBucketBits + 1) * kSubBuckets;

    static std::size_t bucketIndex(std::uint64_t value);
    static std::uint64_t bucketUpperBound(std::size_t index);

    std::vector<std::uint64_t> buckets_;
    /** Touched index range: scans, resets and merges stay inside it. */
    std::size_t lo_ = ~std::size_t{0};
    std::size_t hi_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace uqsim

#endif // UQSIM_CORE_QUANTILE_SKETCH_HH
