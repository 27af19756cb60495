/**
 * @file
 * Connection pool with HTTP/1.1 one-outstanding-request semantics.
 *
 * Each caller-instance -> callee-service pair owns a pool. For
 * multiplexed protocols (Thrift, gRPC/HTTP2) acquisition always
 * succeeds immediately. For blocking protocols, at most
 * connectionsPerPair requests may be outstanding; further callers
 * queue FIFO until a connection frees. This queue is the backpressure
 * channel of Fig 17B: a slow callee parks the caller's worker threads
 * here, making the caller *appear* saturated while its CPU idles.
 */

#ifndef UQSIM_RPC_CONNECTION_POOL_HH
#define UQSIM_RPC_CONNECTION_POOL_HH

#include <cstdint>
#include <deque>

#include "core/inline_function.hh"

namespace uqsim {
class Counter;
}

namespace uqsim::rpc {

/**
 * FIFO-granting connection pool.
 */
class ConnectionPool
{
  public:
    /**
     * @param max_connections pool size (ignored when !blocking)
     * @param blocking        one outstanding request per connection
     * @param blocked         optional aggregate blocked-acquire counter
     *                        (e.g. the app's "rpc.pool.blocked_acquires"
     *                        registry metric) shared across pools
     */
    ConnectionPool(unsigned max_connections, bool blocking,
                   Counter *blocked = nullptr);

    /**
     * Identifies a parked acquire so it can be cancelled (e.g. by an
     * acquire-timeout). 0 means "granted synchronously, nothing to
     * cancel".
     */
    using Ticket = std::uint64_t;
    static constexpr Ticket kGrantedImmediately = 0;

    /** Runs once a connection is handed out. */
    using Grant = InlineFunction<void(), 24>;

    /**
     * Request a connection; @p granted runs immediately if one is
     * free (or the pool is non-blocking), otherwise when released.
     * @return kGrantedImmediately if @p granted already ran, else a
     *         ticket for cancel().
     */
    Ticket acquire(Grant granted);

    /**
     * Abandon a parked acquire. @return true if the waiter was still
     * parked (its callback will never run); false if it was already
     * granted or cancelled.
     */
    bool cancel(Ticket ticket);

    /** Return a connection; may synchronously grant a waiter. */
    void release();

    /** Connections currently handed out (blocking pools only). */
    unsigned inUse() const { return inUse_; }

    /** Callers waiting for a connection. */
    std::size_t waiting() const { return waiters_.size(); }

    /** Peak simultaneous waiters since construction. */
    std::size_t peakWaiting() const { return peakWaiting_; }

    /** Total acquisitions that had to wait. */
    std::uint64_t blockedAcquires() const { return blockedAcquires_; }

  private:
    struct Waiter
    {
        Ticket ticket = 0;
        Grant granted;
    };

    unsigned maxConnections_;
    bool blocking_;
    Counter *blockedMetric_ = nullptr;
    unsigned inUse_ = 0;
    std::deque<Waiter> waiters_;
    Ticket nextTicket_ = 1;
    std::size_t peakWaiting_ = 0;
    std::uint64_t blockedAcquires_ = 0;
};

} // namespace uqsim::rpc

#endif // UQSIM_RPC_CONNECTION_POOL_HH
