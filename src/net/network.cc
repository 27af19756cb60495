#include "net/network.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace uqsim::net {

Network::Network(SimContext ctx, NetworkConfig config, Rng rng)
    : ctx_(ctx), config_(config), rng_(rng)
{
    if (config_.linkGbps <= 0.0 || config_.wirelessGbps <= 0.0)
        fatal("Network with non-positive link bandwidth");
}

void
Network::attachWireless(unsigned server_id)
{
    if (server_id >= wireless_.size())
        wireless_.resize(server_id + 1, false);
    wireless_[server_id] = true;
}

bool
Network::isWireless(unsigned server_id) const
{
    return server_id < wireless_.size() && wireless_[server_id];
}

Tick
Network::serializationDelay(Bytes size, double gbps)
{
    // gbps == bits per nanosecond.
    const double ns = static_cast<double>(size) * 8.0 / gbps;
    return std::max<Tick>(1, static_cast<Tick>(ns));
}

Tick
Network::propagation(unsigned src, unsigned dst)
{
    const bool wireless = isWireless(src) || isWireless(dst);
    if (!wireless)
        return config_.wireLatency;
    // Wireless latency is jittery: log-normal multiplier around 1.
    const double jitter =
        rng_.lognormal(0.0, config_.wirelessJitterSigma);
    Tick lat = static_cast<Tick>(
        static_cast<double>(config_.wirelessLatency) * jitter);
    // Drone-to-drone traffic crosses the router twice.
    if (isWireless(src) && isWireless(dst))
        lat *= 2;
    return lat;
}

Network::TxQueue &
Network::txQueue(unsigned server_id)
{
    if (server_id >= txQueues_.size())
        txQueues_.resize(server_id + 1);
    return txQueues_[server_id];
}

std::pair<Tick, Tick>
Network::crossShardDelay(unsigned src, Bytes size)
{
    const Tick now = ctx_.now();
    TxQueue &tx = txQueue(src);
    const Tick tx_start = std::max(now, tx.busyUntil);
    tx.busyUntil = tx_start + serializationDelay(size, config_.linkGbps);
    ++messages_;
    bytes_ += size;
    return {tx.busyUntil - now, config_.wireLatency};
}

void
Network::send(unsigned src, unsigned dst, Bytes size, DeliverFn deliver)
{
    const Tick now = ctx_.now();

    if (src == dst) {
        if (dropHook_ && dropHook_(src, dst)) {
            ++dropped_;
            return;
        }
        const Tick delay = config_.loopbackLatency;
        auto arrive = [this, size, delay, deliver = std::move(deliver)]() {
            ++messages_;
            bytes_ += size;
            deliver(0, delay);
        };
        static_assert(EventCallback::fitsInline<decltype(arrive)>());
        ctx_.schedule(delay, std::move(arrive));
        return;
    }

    const double gbps = (isWireless(src) || isWireless(dst))
                            ? config_.wirelessGbps
                            : config_.linkGbps;

    TxQueue &tx = txQueue(src);
    const Tick tx_start = std::max(now, tx.busyUntil);
    const Tick ser = serializationDelay(size, gbps);
    tx.busyUntil = tx_start + ser;

    // Drop *after* the tx accounting: the sender still paid the NIC
    // serialization; the message dies in the fabric, not at the source.
    if (dropHook_ && dropHook_(src, dst)) {
        ++dropped_;
        return;
    }

    const Tick prop = propagation(src, dst);
    const Tick delivery = tx.busyUntil + prop;
    const Tick queueing_tx = tx.busyUntil - now;

    auto arrive = [this, size, queueing_tx, prop,
                   deliver = std::move(deliver)]() {
        ++messages_;
        bytes_ += size;
        deliver(queueing_tx, prop);
    };
    static_assert(EventCallback::fitsInline<decltype(arrive)>());
    ctx_.scheduleAt(delivery, std::move(arrive));
}

} // namespace uqsim::net
