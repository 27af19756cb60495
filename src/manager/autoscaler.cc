#include "manager/autoscaler.hh"

#include "core/logging.hh"

namespace uqsim::manager {

AutoScaler::AutoScaler(service::App &app, Config config,
                       std::function<cpu::Server &()> placer)
    : app_(app), config_(config), placer_(std::move(placer))
{
    if (!placer_)
        fatal("AutoScaler needs a placement function");
}

void
AutoScaler::watch(const std::string &service)
{
    if (!app_.hasService(service))
        fatal(strCat("AutoScaler::watch unknown service '", service, "'"));
    watched_.push_back(Watched{&app_.service(service)});
}

void
AutoScaler::watchAllStateless()
{
    for (service::Microservice *svc : app_.services()) {
        const auto kind = svc->def().kind;
        if (kind == service::ServiceKind::Stateless ||
            kind == service::ServiceKind::Frontend)
            watched_.push_back(Watched{svc});
    }
}

void
AutoScaler::start()
{
    if (running_)
        return;
    running_ = true;
    pending_ =
        app_.ctx().schedule(config_.interval, [this]() { decideOnce(); });
}

void
AutoScaler::stop()
{
    running_ = false;
    pending_.cancel();
}

void
AutoScaler::decideOnce()
{
    if (!running_)
        return;
    const Tick now = app_.ctx().now();
    unsigned scaled_this_round = 0;
    for (Watched &w : watched_) {
        if (config_.maxScaleOutsPerRound &&
            scaled_this_round >= config_.maxScaleOutsPerRound)
            break;
        const double value = w.svc->meanOccupancy();
        if (value < config_.threshold)
            continue;
        if (w.lastScale != 0 && now - w.lastScale < config_.cooldown)
            continue;

        // Provision the instance now; it begins serving after the
        // startup (container pull + warmup) delay.
        service::Instance &inst = w.svc->addInstance(placer_());
        inst.setActive(false);
        app_.ctx().schedule(config_.startupDelay, [&inst]() {
            inst.setActive(true);
        });
        w.lastScale = now;
        ++scaled_this_round;
        app_.metrics().counter("autoscaler.scale_outs").inc();
        events_.push_back(ScaleEvent{
            now, w.svc->name(),
            static_cast<unsigned>(w.svc->instances().size()), value});
    }
    pending_ =
        app_.ctx().schedule(config_.interval, [this]() { decideOnce(); });
}

} // namespace uqsim::manager
