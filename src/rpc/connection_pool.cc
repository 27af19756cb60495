#include "rpc/connection_pool.hh"

#include <algorithm>
#include <utility>

#include "core/logging.hh"
#include "core/stats.hh"

namespace uqsim::rpc {

ConnectionPool::ConnectionPool(unsigned max_connections, bool blocking,
                               Counter *blocked)
    : maxConnections_(max_connections), blocking_(blocking),
      blockedMetric_(blocked)
{
    if (blocking && max_connections == 0)
        fatal("blocking ConnectionPool needs at least one connection");
}

ConnectionPool::Ticket
ConnectionPool::acquire(Grant granted)
{
    if (!blocking_) {
        ++inUse_;
        granted();
        return kGrantedImmediately;
    }
    if (inUse_ < maxConnections_) {
        ++inUse_;
        granted();
        return kGrantedImmediately;
    }
    ++blockedAcquires_;
    if (blockedMetric_)
        blockedMetric_->inc();
    const Ticket t = nextTicket_++;
    waiters_.push_back(Waiter{t, std::move(granted)});
    peakWaiting_ = std::max(peakWaiting_, waiters_.size());
    return t;
}

bool
ConnectionPool::cancel(Ticket ticket)
{
    if (ticket == kGrantedImmediately)
        return false;
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
        if (it->ticket == ticket) {
            waiters_.erase(it);
            return true;
        }
    }
    return false;
}

void
ConnectionPool::release()
{
    if (inUse_ == 0)
        panic("ConnectionPool::release with no connection in use");
    if (blocking_ && !waiters_.empty()) {
        // Hand the connection straight to the next waiter. The grant
        // may reenter acquire()/release() on this pool synchronously,
        // so detach the waiter entry before invoking it.
        auto granted = std::move(waiters_.front().granted);
        waiters_.pop_front();
        granted();
        return;
    }
    --inUse_;
}

} // namespace uqsim::rpc
