#include "workload/generators.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace uqsim::workload {

// -- Arrival processes --------------------------------------------------

bool
arrivalKindByName(const std::string &name, ArrivalKind &out)
{
    if (name == "poisson")
        out = ArrivalKind::Poisson;
    else if (name == "mmpp")
        out = ArrivalKind::Mmpp;
    else if (name == "diurnal")
        out = ArrivalKind::Diurnal;
    else if (name == "flash")
        out = ArrivalKind::Flash;
    else
        return false;
    return true;
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Mmpp:
        return "mmpp";
      case ArrivalKind::Diurnal:
        return "diurnal";
      case ArrivalKind::Flash:
        return "flash";
    }
    return "unknown";
}

namespace {

/** An exponential gap in ticks at @p rate req/s, clamped >= 1. */
Tick
expGapTicks(Rng &rng, double rate)
{
    const double mean_ns = static_cast<double>(kTicksPerSec) / rate;
    return std::max<Tick>(1, static_cast<Tick>(rng.exponential(mean_ns)));
}

} // namespace

PoissonProcess::PoissonProcess(double qps, std::uint64_t seed)
    : qps_(qps), rng_(seed)
{
    if (qps <= 0.0)
        fatal("PoissonProcess qps must be positive");
}

Tick
PoissonProcess::nextGap(Tick)
{
    return expGapTicks(rng_, qps_);
}

MmppProcess::MmppProcess(double qps, double burst, double duty,
                         Tick dwell, std::uint64_t seed)
    : qps_(qps), rng_(seed)
{
    if (qps <= 0.0)
        fatal("MmppProcess qps must be positive");
    if (burst < 1.0)
        fatal("MmppProcess burst must be >= 1");
    if (duty <= 0.0 || duty >= 1.0)
        fatal("MmppProcess duty must be in (0, 1)");
    if (dwell == 0)
        fatal("MmppProcess dwell must be positive");
    // Solve the two state rates so the stationary mean
    //   (1 - duty) * low + duty * high  ==  qps,  high = burst * low.
    lowRate_ = qps / (1.0 - duty + duty * burst);
    highRate_ = burst * lowRate_;
    // The chain spends duty of its time in the peak state, so the mean
    // base-state sojourn is dwell * (1 - duty) / duty.
    dwellHighSec_ = ticksToSec(dwell);
    dwellLowSec_ = dwellHighSec_ * (1.0 - duty) / duty;
    switchAt_ = rng_.exponential(dwellLowSec_ *
                                 static_cast<double>(kTicksPerSec));
}

Tick
MmppProcess::nextGap(Tick now)
{
    // Draw at the current state's rate; a draw that crosses the next
    // modulation switch is abandoned at the switch and redrawn at the
    // new state's rate — exact for exponential gaps.
    double t = static_cast<double>(now);
    for (;;) {
        const double mean_ns =
            static_cast<double>(kTicksPerSec) / rate(high_);
        const double gap = rng_.exponential(mean_ns);
        if (t + gap <= switchAt_) {
            t += gap;
            const double total = t - static_cast<double>(now);
            return std::max<Tick>(1, static_cast<Tick>(total));
        }
        t = switchAt_;
        high_ = !high_;
        const double dwell_sec = high_ ? dwellHighSec_ : dwellLowSec_;
        switchAt_ = t + rng_.exponential(
                            dwell_sec *
                            static_cast<double>(kTicksPerSec));
    }
}

double
MmppProcess::idc() const
{
    if (highRate_ == lowRate_)
        return 1.0;
    const double q_lh = 1.0 / dwellLowSec_;  // base -> peak
    const double q_hl = 1.0 / dwellHighSec_; // peak -> base
    const double pi_h = q_lh / (q_lh + q_hl);
    const double pi_l = 1.0 - pi_h;
    const double d = highRate_ - lowRate_;
    return 1.0 + 2.0 * pi_l * pi_h * d * d / (qps_ * (q_lh + q_hl));
}

ShapedProcess::ShapedProcess(double qps, ArrivalKind kind,
                             std::function<double(Tick)> shape,
                             double mean, std::uint64_t seed)
    : qps_(qps), kind_(kind), shape_(std::move(shape)),
      shapeMean_(mean), rng_(seed)
{
    if (qps <= 0.0)
        fatal("ShapedProcess qps must be positive");
    if (!shape_)
        fatal("ShapedProcess needs a shape");
}

Tick
ShapedProcess::nextGap(Tick now)
{
    const double rate = qps_ * std::max(1e-6, shape_(now));
    return expGapTicks(rng_, rate);
}

double
flashMultiplierAt(Tick t, Tick at, Tick ramp, double mult, Tick hold)
{
    if (t < at)
        return 1.0;
    const double extra = mult - 1.0;
    if (t < at + ramp)
        return 1.0 + extra * static_cast<double>(t - at) /
                         static_cast<double>(ramp);
    if (t < at + ramp + hold)
        return mult;
    const double fall = static_cast<double>(t - (at + ramp + hold)) /
                        static_cast<double>(ramp);
    return 1.0 + extra * std::exp(-fall);
}

std::unique_ptr<ArrivalProcess>
ArrivalProcess::make(const ArrivalConfig &config, double qps,
                     std::uint64_t seed)
{
    switch (config.kind) {
      case ArrivalKind::Poisson:
        return std::make_unique<PoissonProcess>(qps, seed);
      case ArrivalKind::Mmpp:
        return std::make_unique<MmppProcess>(qps, config.burst,
                                             config.duty, config.dwell,
                                             seed);
      case ArrivalKind::Diurnal: {
        const DiurnalShape shape(config.period, config.low);
        // Normalize by the curve's own mean so the long-run rate is
        // exactly qps, not qps times the (parameter-dependent) curve
        // average.
        const double mean = shape.meanMultiplier();
        return std::make_unique<ShapedProcess>(
            qps, ArrivalKind::Diurnal,
            [shape, mean](Tick t) { return shape.at(t) / mean; }, 1.0,
            seed);
      }
      case ArrivalKind::Flash: {
        const Tick at = config.flashAt;
        const Tick ramp = std::max<Tick>(1, config.flashRamp);
        const double mult = config.flashMult;
        const Tick hold = config.flashHold;
        // The crowd is extra load by design; meanRate() reports the
        // base rate the multiplier returns to.
        return std::make_unique<ShapedProcess>(
            qps, ArrivalKind::Flash,
            [at, ramp, mult, hold](Tick t) {
                return flashMultiplierAt(t, at, ramp, mult, hold);
            },
            1.0, seed);
      }
    }
    fatal("unhandled arrival kind");
    return nullptr;
}

QueryMix
QueryMix::fromApp(const service::App &app)
{
    std::vector<double> weights;
    for (const auto &qt : app.queryTypes())
        weights.push_back(qt.weight);
    if (weights.empty())
        weights.push_back(1.0);
    return QueryMix(std::move(weights));
}

QueryMix::QueryMix(std::vector<double> weights)
{
    if (weights.empty())
        fatal("QueryMix with no weights");
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            fatal("QueryMix with negative weight");
        total += w;
    }
    if (total <= 0.0)
        fatal("QueryMix with zero total weight");
    double cum = 0.0;
    for (double w : weights) {
        cum += w / total;
        cdf_.push_back(cum);
    }
    cdf_.back() = 1.0;
}

unsigned
QueryMix::sample(Rng &rng) const
{
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<unsigned>(
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

OpenLoopGenerator::OpenLoopGenerator(service::App &app, QueryMix mix,
                                     UserPopulation users,
                                     std::uint64_t seed)
    : app_(app), mix_(std::move(mix)), users_(std::move(users)), rng_(seed)
{}

void
OpenLoopGenerator::setQps(double qps)
{
    if (qps <= 0.0)
        fatal("OpenLoopGenerator qps must be positive");
    qps_ = qps;
}

void
OpenLoopGenerator::setArrivalProcess(
    std::unique_ptr<ArrivalProcess> process)
{
    arrival_ = std::move(process);
}

void
OpenLoopGenerator::start()
{
    if (running_)
        return;
    running_ = true;
    scheduleNext();
}

void
OpenLoopGenerator::stop()
{
    running_ = false;
    pending_.cancel();
}

void
OpenLoopGenerator::scheduleNext()
{
    if (!running_)
        return;
    // Without a process the gap comes from the generator's own stream,
    // ahead of the query and user draws: the legacy draw order.
    const Tick gap = arrival_ ? arrival_->nextGap(app_.ctx().now())
                              : expGapTicks(rng_, qps_);
    pending_ = app_.ctx().schedule(gap, [this]() {
        if (!running_)
            return;
        const unsigned qt = mix_.sample(rng_);
        const std::uint64_t user = users_.sample(rng_);
        app_.inject(qt, user);
        ++generated_;
        scheduleNext();
    });
}

ClosedLoopGenerator::ClosedLoopGenerator(service::App &app, QueryMix mix,
                                         UserPopulation users,
                                         unsigned concurrency,
                                         Dist think_time_ns,
                                         std::uint64_t seed)
    : app_(app), mix_(std::move(mix)), users_(std::move(users)),
      concurrency_(concurrency), thinkTime_(std::move(think_time_ns)),
      rng_(seed)
{
    if (concurrency == 0)
        fatal("ClosedLoopGenerator with zero concurrency");
}

void
ClosedLoopGenerator::start()
{
    if (running_)
        return;
    running_ = true;
    for (unsigned i = 0; i < concurrency_; ++i)
        issueOne(users_.sample(rng_));
}

void
ClosedLoopGenerator::stop()
{
    running_ = false;
}

void
ClosedLoopGenerator::issueOne(std::uint64_t user)
{
    if (!running_)
        return;
    const unsigned qt = mix_.sample(rng_);
    ++generated_;
    app_.inject(qt, user, [this](const service::Request &) {
        if (!running_)
            return;
        const Tick think = static_cast<Tick>(
            std::max(0.0, thinkTime_.sample(rng_)));
        app_.ctx().schedule(think, [this]() {
            issueOne(users_.sample(rng_));
        });
    });
}

DiurnalShape::DiurnalShape(Tick period, double low)
    : period_(period), low_(low)
{
    if (period == 0)
        fatal("DiurnalShape with zero period");
    if (low <= 0.0 || low > 1.0)
        fatal("DiurnalShape low fraction must be in (0, 1]");
}

double
DiurnalShape::at(Tick t) const
{
    // A day compressed into `period_`: quiet night, morning ramp, a
    // midday peak, an evening peak slightly higher, then falloff.
    const double x = static_cast<double>(t % period_) /
                     static_cast<double>(period_); // [0,1) day fraction
    const double base =
        0.5 * (1.0 - std::cos(2.0 * M_PI * x));       // 0 at night, 1 midday
    const double evening =
        0.35 * std::exp(-std::pow((x - 0.8) / 0.07, 2.0)); // evening bump
    const double v = std::min(1.0, base + evening);
    return low_ + (1.0 - low_) * v;
}

double
DiurnalShape::meanMultiplier() const
{
    // Fixed-resolution trapezoid sum: deterministic for a given
    // (period, low), independent of the caller's tick rate.
    constexpr int kSamples = 4096;
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const Tick t = static_cast<Tick>(
            (static_cast<double>(period_) * i) / kSamples);
        sum += at(t);
    }
    return sum / kSamples;
}

} // namespace uqsim::workload
