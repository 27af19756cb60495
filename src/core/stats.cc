#include "core/stats.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim {

void
TimeWeightedGauge::update(Tick now, double v)
{
    if (now < lastUpdate_)
        panic("TimeWeightedGauge::update with time going backwards");
    integral_ += value_ * static_cast<double>(now - lastUpdate_);
    value_ = v;
    peak_ = std::max(peak_, v);
    lastUpdate_ = now;
}

double
TimeWeightedGauge::average(Tick now) const
{
    const Tick span = now - resetTime_;
    if (span == 0)
        return value_;
    const double total =
        integral_ + value_ * static_cast<double>(now - lastUpdate_);
    return total / static_cast<double>(span);
}

void
TimeWeightedGauge::reset(Tick now)
{
    integral_ = 0.0;
    peak_ = value_;
    lastUpdate_ = now;
    resetTime_ = now;
}

} // namespace uqsim
