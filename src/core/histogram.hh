/**
 * @file
 * Log-bucketed latency histogram with percentile queries.
 *
 * The bucketing scheme follows HdrHistogram: values below
 * 2^subBucketBits are exact, and larger values are grouped into
 * power-of-two ranges with linear sub-buckets. Only the upper half of
 * each octave's 2^subBucketBits sub-buckets is ever filled, so a
 * value in [2^m, 2^(m+1)) lands in a bucket 2^(m+1-subBucketBits)
 * wide. percentile() answers with the bucket's upper bound, which
 * overstates the sample by less than 2^-(subBucketBits-1) of it:
 * under 3.125% for the default 6 bits, reached just above each power
 * of two. This is what every tail-latency statistic in uqsim is built
 * on.
 */

#ifndef UQSIM_CORE_HISTOGRAM_HH
#define UQSIM_CORE_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace uqsim {

/**
 * Fixed-precision histogram of non-negative 64-bit values.
 */
class Histogram
{
  public:
    /** @param sub_bucket_bits linear resolution within each octave. */
    explicit Histogram(unsigned sub_bucket_bits = 6);

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p count identical samples. */
    void record(std::uint64_t value, std::uint64_t count);

    /** Total number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Smallest recorded value (0 if empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest recorded value (0 if empty). */
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /** Arithmetic mean of recorded samples (0 if empty). */
    double mean() const;

    /**
     * Value at percentile @p p in [0, 100]. Returns an upper bound of
     * the bucket containing the requested rank (0 if empty): at least
     * the sample at that rank and less than 2^-(subBucketBits-1)
     * above it (see the file comment).
     */
    std::uint64_t percentile(double p) const;

    /** Shorthand for common tail percentiles. */
    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p95() const { return percentile(95.0); }
    std::uint64_t p99() const { return percentile(99.0); }

    /** Merge another histogram (same resolution) into this one. */
    void merge(const Histogram &other);

    /** Forget all samples. */
    void reset();

  private:
    std::size_t bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketUpperBound(std::size_t index) const;

    unsigned subBucketBits_;
    std::uint64_t subBucketCount_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace uqsim

#endif // UQSIM_CORE_HISTOGRAM_HH
