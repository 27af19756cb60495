/**
 * @file
 * Server-side admission control with weighted QoS classes.
 *
 * The paper's Fig 19 shows the defining overload failure of
 * microservice graphs: once one tier saturates, queues grow without
 * bound, every request waits past its deadline and goodput collapses
 * instead of degrading. The client-side resilience layer (rpc/
 * resilience.hh) can reproduce that collapse but not the cure, because
 * services themselves accept every arrival. This module supplies the
 * server side: each instance gets a bounded per-class request queue
 * with weighted dequeue, a token-bucket throughput throttler, and
 * cost-based shedding that refuses cheap-to-refuse work at the door —
 * before it consumes service time.
 *
 * Requests are partitioned into three QoS classes (user-facing /
 * batch / best-effort) derived from their query type. Under overload
 * the controller sacrifices the classes in reverse priority order:
 * best-effort is refused first (lowest shed threshold, largest token
 * reserve), then batch, and user-facing work keeps most of the
 * capacity — graceful degradation instead of the cliff.
 *
 * Like the resilience layer, everything here is passive state advanced
 * lazily from the caller's clock: no object schedules simulator
 * events and decisions draw no randomness, so enabled runs stay
 * deterministic at any shard/thread count. Without a class policy the
 * same queue is a one-class FIFO, so runs without QoS keep the
 * execution digest of the runtime before admission control.
 */

#ifndef UQSIM_SERVICE_ADMISSION_HH
#define UQSIM_SERVICE_ADMISSION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hh"

namespace uqsim::service {

/**
 * Priority class of a request, derived from its query type. Order is
 * priority order: lower value = more important = refused last.
 */
enum class QosClass : std::uint8_t
{
    UserFacing = 0, ///< interactive traffic; shed only as a last resort
    Batch = 1,      ///< throughput work (feeds, analytics)
    BestEffort = 2, ///< prefetch/speculative; first against the wall
};

constexpr unsigned kQosClassCount = 3;

/** @return a short printable class name ("user-facing", ...). */
const char *qosClassName(QosClass c);

/** Resolve a class name; @return false if unknown. */
bool qosClassByName(const std::string &name, QosClass &out);

/**
 * The class policy App::enableQos installs into every instance queue.
 * Until then an instance queue is one FIFO bounded by its tier's limits.
 */
struct AdmissionPolicy
{
    /**
     * Weighted-round-robin dequeue credits per class. Per grant cycle
     * a backlogged class gets weights[c] of every
     * sum(weights-of-backlogged-classes) service slots.
     */
    std::array<unsigned, kQosClassCount> weights = {8, 2, 1};

    /**
     * Bounded per-class queue depth (0 = inherit the tier's
     * queueCapacity). Arrivals beyond the bound are refused with
     * Overflow — the hard backstop behind the shed thresholds.
     */
    unsigned classQueueCapacity = 0;

    /**
     * Token-bucket throughput throttle: admitted requests per second
     * per instance (0 = unlimited). Tokens refill lazily from the
     * arrival clock; every admitted request consumes one.
     */
    double ratePerInstance = 0.0;

    /** Token-bucket burst capacity (tokens). */
    double burst = 32.0;

    /**
     * Cost-based shed thresholds, as fractions of the per-class queue
     * bound applied to the *aggregate* backlog: class c is refused
     * with Shed once total queued work reaches shedAt[c] * bound.
     * Refusing at the door costs only the reply path, so the classes
     * whose refusal is cheapest (lowest priority, no retry pressure)
     * go first: best-effort at 25% backlog, batch at 50%, user-facing
     * only when the backlog reaches the full bound.
     */
    std::array<double, kQosClassCount> shedAt = {1.0, 0.5, 0.25};
};

/**
 * App-level QoS configuration: the policy applied to every tier plus
 * the query-type -> class assignment (query types not named in either
 * list stay user-facing).
 */
struct QosConfig
{
    AdmissionPolicy policy;
    std::vector<std::string> batchQueries;
    std::vector<std::string> bestEffortQueries;
};

/**
 * Deterministic token bucket, refilled lazily from the caller's clock
 * (never schedules events — same discipline as rpc::CircuitBreaker).
 */
class TokenBucket
{
  public:
    /** @p rate_per_sec tokens/s, clamped at @p burst. Starts full. */
    TokenBucket(double rate_per_sec, double burst);

    /** @return true while no rate is configured (always admits). */
    bool unlimited() const { return ratePerTick_ <= 0.0; }

    /** Tokens available at @p now (refills first). */
    double available(Tick now);

    /**
     * Admit one request at @p now if at least @p reserve tokens are
     * available; consumes exactly one token on success. A reserve
     * above 1.0 leaves headroom for higher-priority classes — the
     * priority mechanism of the throttler.
     */
    bool tryAcquire(Tick now, double reserve);

    /** Refit to a fresh process (restart): full bucket at @p now. */
    void reset(Tick now);

  private:
    void refill(Tick now);

    double ratePerTick_;
    double burst_;
    double tokens_;
    Tick last_ = 0;
};

/**
 * Token reserve a class must see before the throttler admits it:
 * user-facing takes the last token, batch keeps 25% of the burst in
 * reserve, best-effort 50%. Under sustained overload the bucket hovers
 * near empty, so low-priority classes are throttled first and the
 * reserved headroom is what keeps user-facing traffic flowing.
 */
double qosTokenReserve(const AdmissionPolicy &pol, QosClass c);

/** Outcome of one admission decision. */
enum class AdmissionVerdict : std::uint8_t
{
    Admit = 0,
    Throttled, ///< token bucket dry (for this class's reserve)
    Shed,      ///< backlog above the class's shed threshold
    Overflow,  ///< per-class queue bound reached
};

/**
 * The request queue of one instance. Until a class policy is installed
 * it is one FIFO (every item is user-facing) that sheds at the tier's
 * shedQueueLength and overflows at its queueCapacity. Once installed
 * (App::enableQos) it is a bounded multi-class queue with weighted-
 * round-robin dequeue, a token bucket and cost-based shedding.
 * Header-only template so the instance's private Arrival record can be
 * stored without a dependency cycle; the closed-form tests instantiate
 * it with plain timestamps.
 *
 * Determinism: offer()/pop() are pure state machines over the caller's
 * clock — WRR credits instead of randomized selection, lazy bucket
 * refill instead of timer events.
 */
template <typename Item>
class AdmissionQueue
{
  public:
    /**
     * One FIFO of at most @p capacity items (the tier's queueCapacity,
     * also the per-class bound a policy may inherit). Only that FIFO
     * exists until a policy is installed: a deque allocates as it is
     * made, and queues without QoS never use the other classes.
     */
    explicit AdmissionQueue(unsigned capacity)
        : capacity_(capacity), bucket_(0.0, 1.0)
    {
        q_[0].emplace();
    }

    /**
     * Govern the queue by class policy @p pol from now on, with a full
     * token bucket clocked from @p now. The policy is not copied: it
     * must outlive the queue (the App holds the one every queue uses).
     */
    void
    install(const AdmissionPolicy &pol, Tick now)
    {
        pol_ = &pol;
        if (pol.classQueueCapacity)
            capacity_ = pol.classQueueCapacity;
        weights_ = pol.weights;
        credit_ = {};
        bucket_ = TokenBucket(pol.ratePerInstance, pol.burst);
        bucket_.reset(now);
        for (auto &q : q_)
            if (!q)
                q.emplace();
    }

    /**
     * Decide admission for one class-@p c arrival at @p now. Without a
     * policy: Shed once @p shed_length items wait (0 = never), then
     * Overflow at the capacity. With one: the throttler first, then
     * the hard per-class bound, then the cost-based shed thresholds
     * (aggregate backlog vs the class's fraction of the bound — the
     * check that fires earliest for the low-priority classes); the
     * FIFO's @p shed_length is not consulted. Only an Admit consumes a
     * token; the caller must follow it with push() or bypass().
     */
    AdmissionVerdict
    offer(QosClass c, Tick now, std::size_t shed_length = 0)
    {
        const auto idx = static_cast<std::size_t>(c);
        if (!pol_) {
            if (shed_length > 0 && total_ >= shed_length)
                return AdmissionVerdict::Shed;
            return total_ >= capacity_ ? AdmissionVerdict::Overflow
                                       : AdmissionVerdict::Admit;
        }
        if (!bucket_.unlimited() &&
            !bucket_.tryAcquire(now, qosTokenReserve(*pol_, c)))
            return AdmissionVerdict::Throttled;
        if (q_[idx]->size() >= capacity_)
            return AdmissionVerdict::Overflow;
        if (total_ >= static_cast<std::size_t>(
                          pol_->shedAt[idx] *
                          static_cast<double>(capacity_)))
            return AdmissionVerdict::Shed;
        return AdmissionVerdict::Admit;
    }

    /** Enqueue an admitted arrival. */
    void
    push(QosClass c, Item item)
    {
        q_[static_cast<std::size_t>(c)]->push_back(std::move(item));
        ++total_;
    }

    /**
     * Dequeue the next item by weighted round robin: each grant cycle
     * hands every class weights[c] credits; backlogged classes are
     * scanned in priority order and spend credits first-come. With
     * lopsided weights this degenerates to strict priority, which is
     * what the closed-form priority-queue test pins down.
     * @return false when empty.
     */
    bool
    pop(QosClass &cls, Item &out)
    {
        if (total_ == 0)
            return false;
        for (;;) {
            for (std::size_t c = 0; c < kQosClassCount; ++c) {
                if (!q_[c] || q_[c]->empty() || credit_[c] == 0)
                    continue;
                --credit_[c];
                cls = static_cast<QosClass>(c);
                out = std::move(q_[c]->front());
                q_[c]->pop_front();
                --total_;
                return true;
            }
            // Every backlogged class is out of credit: grant a fresh
            // cycle (unused credit does not accumulate).
            credit_ = weights_;
        }
    }

    /**
     * Account a class-@p c arrival that an idle instance serves at
     * once (the queue is empty): it spends the credit the push()/pop()
     * round trip would have spent, so the WRR order is the same.
     */
    void
    bypass(QosClass c)
    {
        const auto idx = static_cast<std::size_t>(c);
        if (credit_[idx] == 0)
            credit_ = weights_;
        --credit_[idx];
    }

    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

    /** Queued items of one class right now. */
    std::size_t
    length(QosClass c) const
    {
        const auto &q = q_[static_cast<std::size_t>(c)];
        return q ? q->size() : 0;
    }

    /** Effective per-class queue bound. */
    unsigned capacity() const { return capacity_; }

    /** Drop all queued work (crash path). */
    void
    clear()
    {
        for (auto &q : q_)
            if (q)
                q->clear();
        total_ = 0;
    }

    /** Fresh-process state: empty queues, full bucket (restart path). */
    void
    reset(Tick now)
    {
        clear();
        credit_ = {};
        bucket_.reset(now);
    }

  private:
    /** The installed class policy (null: one FIFO). */
    const AdmissionPolicy *pol_ = nullptr;
    unsigned capacity_;
    TokenBucket bucket_;
    /** One FIFO per class; the non-user-facing ones only under a policy. */
    std::array<std::optional<std::deque<Item>>, kQosClassCount> q_;
    /** WRR credits per grant cycle; the FIFO's one class gets one. */
    std::array<unsigned, kQosClassCount> weights_ = {1, 1, 1};
    std::array<unsigned, kQosClassCount> credit_{};
    std::size_t total_ = 0;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_ADMISSION_HH
