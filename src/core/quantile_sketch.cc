#include "core/quantile_sketch.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim {

QuantileSketch::QuantileSketch() : buckets_(kBuckets, 0) {}

std::size_t
QuantileSketch::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    // Octave of values whose shifted top kSubBucketBits+1 bits land in
    // [2^bits, 2^(bits+1)): every sub-bucket's width is 1/2^bits of
    // its own lower bound, which is what makes relativeErrorBound()
    // a guarantee rather than a best case. ~0ull lands in the last
    // bucket.
    const unsigned msb =
        63u - static_cast<unsigned>(__builtin_clzll(value));
    const unsigned octave = msb - kSubBucketBits;
    const std::uint64_t sub =
        (value >> octave) - kSubBuckets; // in [0, 2^bits)
    return (static_cast<std::size_t>(octave) + 1) * kSubBuckets +
           static_cast<std::size_t>(sub);
}

std::uint64_t
QuantileSketch::bucketUpperBound(std::size_t index)
{
    if (index < kSubBuckets)
        return static_cast<std::uint64_t>(index);
    const std::size_t octave = index / kSubBuckets - 1;
    const std::uint64_t sub = index % kSubBuckets;
    // Wraps to ~0ull for the last bucket, the largest value it holds.
    return ((sub + kSubBuckets + 1) << octave) - 1;
}

void
QuantileSketch::record(std::uint64_t value)
{
    const std::size_t idx = bucketIndex(value);
    lo_ = std::min(lo_, idx);
    hi_ = std::max(hi_, idx);
    ++buckets_[idx];
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value);
}

double
QuantileSketch::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
QuantileSketch::quantile(double q) const
{
    std::uint64_t out;
    quantiles(&q, 1, &out);
    return out;
}

void
QuantileSketch::quantiles(const double *qs, std::size_t n,
                          std::uint64_t *out) const
{
    if (count_ == 0) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 0;
        return;
    }
    // Ranks, with the q<=0 / q>=1 exact answers filled up front.
    std::uint64_t ranks[16];
    if (n > sizeof(ranks) / sizeof(ranks[0]))
        panic("QuantileSketch::quantiles with too many quantiles");
    std::size_t open = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (qs[i] <= 0.0) {
            out[i] = min_;
            ranks[i] = 0;
        } else if (qs[i] >= 1.0) {
            out[i] = max_;
            ranks[i] = 0;
        } else {
            ranks[i] = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       qs[i] * static_cast<double>(count_) + 0.5));
            out[i] = max_;
            ++open;
        }
    }
    std::uint64_t seen = 0;
    for (std::size_t i = lo_; i <= hi_ && open > 0; ++i) {
        if (buckets_[i] == 0)
            continue;
        seen += buckets_[i];
        for (std::size_t k = 0; k < n; ++k) {
            if (ranks[k] != 0 && seen >= ranks[k]) {
                out[k] = std::clamp(bucketUpperBound(i), min_, max_);
                ranks[k] = 0;
                --open;
            }
        }
    }
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = other.lo_; i <= other.hi_; ++i)
        buckets_[i] += other.buckets_[i];
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
QuantileSketch::reset()
{
    if (count_ != 0)
        std::fill(buckets_.data() + lo_, buckets_.data() + hi_ + 1, 0);
    lo_ = ~std::size_t{0};
    hi_ = 0;
    count_ = 0;
    min_ = ~0ull;
    max_ = 0;
    sum_ = 0.0;
}

} // namespace uqsim
