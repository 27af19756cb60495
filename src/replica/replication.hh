/**
 * @file
 * Leader/follower replica groups over the keyed data tier.
 *
 * A replicated stateful tier of I instances forms I successor groups on
 * the existing consistent-hash ring: group g (the owner of ring shard
 * g's keys) is served by members {g, (g+1)%I, ..., (g+N-1)%I}, where
 * N = min(factor, I). Member position 0 is the initial leader; the
 * logical store of group g stays pinned to the tier's model slot g no
 * matter who leads, so a failover inherits the warm store instead of
 * the cold restart PR 5 gave a crashed shard.
 *
 * The group state machine is deterministic and *lazily advanced*: no
 * events are scheduled. Crashes/restarts and partition windows feed in
 * through onInstanceDown/Up/onTopologyChange; elections complete the
 * first time the group is consulted at or after electionEndsAt. Apply
 * lag is modelled deterministically — the member p ring-hops past the
 * leader trails the log head by applyLag*p — which yields three
 * emergent behaviours with zero randomness:
 *
 *  - a quorum write acks after the (W-1)-th fastest eligible follower
 *    has applied it (the write's quorumDelay);
 *  - a promoted follower's store is the leader's store minus the last
 *    applyLag*p of writes (the log-replay trim, CacheModel::
 *    dropWrittenAfter), so failover is a *warm* restart;
 *  - a follower read is stale by exactly its lag, which is what the
 *    read preferences trade against availability.
 *
 * When the eligible-member count falls below the write quorum the
 * group degrades to typed QuorumLost rejects — never hangs — and the
 * client-side retry budget (PR 3) decides how hard to push.
 */

#ifndef UQSIM_REPLICA_REPLICATION_HH
#define UQSIM_REPLICA_REPLICATION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hh"

namespace uqsim::replica {

/** Which member serves a replicated read. */
enum class ReadPreference
{
    Leader,        ///< always the leader: fresh, but election-blind
    Nearest,       ///< deterministic member by key: available, stale
    ReadYourWrites,///< follower unless a recent write demands the leader
};

const char *readPreferenceName(ReadPreference p);
bool readPreferenceByName(const std::string &name, ReadPreference &out);

/** Configuration of one tier's replication layer. */
struct ReplicationConfig
{
    /** Replicas per group, leader included (>= 2 to enable). */
    unsigned factor = 3;

    /**
     * Write quorum W: acks (leader + followers) a write needs.
     * 0 = majority of factor. Also the election quorum: a leader is
     * only elected from a connected component of at least W eligible
     * members, which keeps split-brain impossible by construction.
     */
    unsigned writeQuorum = 0;

    /** Apply lag per ring hop: member p trails the head by p*this. */
    Tick applyLag = 1 * kTicksPerMs;

    /** Leaderless window after a depose before promotion completes. */
    Tick electionTimeout = 50 * kTicksPerMs;

    /** Log catch-up time a restarted member needs to become eligible. */
    Tick catchUp = 100 * kTicksPerMs;

    ReadPreference readPreference = ReadPreference::Leader;

    /**
     * Keys touched by one multi-partition transaction (>= 2 enables
     * 2PC on write-tagged keyed stages; 0/1 = plain single-key writes).
     */
    unsigned txnKeys = 0;

    /** Coordinator deadline on the 2PC prepare phase. */
    Tick txnPrepareTimeout = 10 * kTicksPerMs;

    bool enabled() const { return factor >= 2; }
    unsigned quorum() const
    {
        return writeQuorum ? writeQuorum : factor / 2 + 1;
    }
    bool txnEnabled() const { return txnKeys >= 2; }
};

/** Typed outcome of a replicated route decision. */
enum class Verdict
{
    Ok,
    QuorumLost,  ///< below write/election quorum: typed fast reject
    StaleRead,   ///< freshness requirement unsatisfiable right now
    Unreachable, ///< every member of the group is down
};

/** Where (and how) one keyed access is served. */
struct RouteDecision
{
    Verdict verdict = Verdict::Ok;

    /** Serving instance index (valid when verdict == Ok). */
    unsigned instance = 0;

    /** Read served by a lagging member (possibly stale data). */
    bool stale = false;

    /** Read-your-writes bounced this read to the leader. */
    bool redirected = false;

    /** Write: simulated wait until the W-th ack (0 for reads). */
    Tick quorumDelay = 0;
};

/** Store maintenance owed by the service before the next access. */
struct Maintenance
{
    /** Group lost every member: the logical store is gone. */
    bool clearStore = false;

    /** Failover happened: drop entries written after trimCutoff. */
    bool trim = false;
    Tick trimCutoff = 0;
};

/** One promotion: exactly one leader per term, by construction. */
struct TermRecord
{
    std::uint64_t term = 0;
    unsigned leader = 0; ///< instance index
};

/**
 * Link oracle between two instances of the tier; true = severed.
 * Evaluated at decision time so partition windows need no scheduling.
 */
using SeveredFn = std::function<bool(unsigned a, unsigned b)>;

/** Internal event accounting (mirrored into metrics by the service). */
struct ReplicaCounts
{
    std::uint64_t staleReads = 0;
    std::uint64_t rywRedirects = 0;
    std::uint64_t quorumLostWrites = 0;
    std::uint64_t quorumLostReads = 0;
    std::uint64_t staleRejects = 0;
    std::uint64_t electionsStarted = 0;
    std::uint64_t failovers = 0;
    std::uint64_t catchUps = 0;
    std::uint64_t trims = 0;
    std::uint64_t storeLosses = 0;
};

/**
 * The replica-group state machine of one stateful tier.
 */
class ReplicaSet
{
  public:
    /** @param instances tier instance count (= group count). */
    ReplicaSet(ReplicationConfig cfg, unsigned instances);

    const ReplicationConfig &config() const { return cfg_; }

    /** Groups (one per ring shard / tier instance). */
    unsigned groups() const { return instances_; }

    /** Members per group, N = min(factor, instances). */
    unsigned replicas() const { return n_; }

    /** Effective quorum, clamped into [1, replicas()]. */
    unsigned quorum() const { return quorum_; }

    /** Instance index of group @p group's member at position @p pos. */
    unsigned memberAt(unsigned group, unsigned pos) const
    {
        return (group + pos) % instances_;
    }

    /** Install the partition link oracle (null = fully connected). */
    void setSevered(SeveredFn fn) { severed_ = std::move(fn); }

    // -- Lifecycle events (crash schedule / topology) ----------------

    void onInstanceDown(unsigned inst, Tick now);
    void onInstanceUp(unsigned inst, Tick now);

    /** Re-examine sitting leaders after a connectivity change. */
    void onTopologyChange(Tick now);

    // -- Routing -----------------------------------------------------

    /**
     * Collect (and clear) store maintenance owed for @p group. Call —
     * and apply to the group's store — before serving any access.
     */
    Maintenance poll(unsigned group, Tick now);

    /**
     * Decide who serves one keyed access against @p group. The
     * service resolves twice per access — once at stage time (store
     * semantics) and once at attempt time (instance addressing) —
     * so the second resolution passes @p count = false to keep the
     * event counts per-access, not per-resolution.
     */
    RouteDecision route(unsigned group, std::uint64_t key, bool write,
                        Tick now, bool count = true);

    /** Note a successful quorum write (read-your-writes bookkeeping). */
    void recordWrite(unsigned group, Tick now);

    // -- Introspection ----------------------------------------------

    /** Current leader instance of @p group, or -1 mid-election. */
    int leaderOf(unsigned group, Tick now);

    std::uint64_t termOf(unsigned group) const;

    /** Promotion history; term 1 is the initial leader. */
    const std::vector<TermRecord> &history(unsigned group) const;

    /** True while every member of @p group is down. */
    bool dead(unsigned group) const;

    /**
     * Staleness bound of @p group right now: the election gap while
     * leaderless, else the worst eligible-follower lag.
     */
    Tick stalenessBound(unsigned group, Tick now) const;

    /** Max staleness bound over all groups (the obs series value). */
    Tick maxStalenessBound(Tick now) const;

    const ReplicaCounts &counts() const { return counts_; }

  private:
    struct Member
    {
        bool up = true;
        /** Restarted members replay the log until here. */
        Tick catchUpUntil = 0;
    };

    struct Group
    {
        /** Leader position within the group, -1 while leaderless. */
        int leaderPos = 0;
        int prevLeaderPos = 0;
        std::uint64_t term = 1;
        Tick electionEndsAt = 0;
        Tick deposedAt = 0;
        bool dead = false;
        bool hasWrite = false;
        Tick lastWriteAt = 0;
        bool clearPending = false;
        bool trimPending = false;
        Tick trimCutoff = 0;
        std::vector<TermRecord> history;
    };

    /** Ring distance of @p pos past the current leader. */
    Tick lagOf(const Group &g, unsigned pos) const;
    bool connected(unsigned a, unsigned b) const;
    bool eligibleAt(unsigned group, unsigned pos, Tick now) const;
    void depose(unsigned group, Tick now);
    /** Complete a due election (lazy; no-op while quorum is absent). */
    void advance(unsigned group, Tick now);

    ReplicationConfig cfg_;
    unsigned instances_;
    unsigned n_;
    unsigned quorum_;
    SeveredFn severed_;
    std::vector<Member> members_;
    std::vector<Group> groups_;
    ReplicaCounts counts_;
    /** route()'s scratch: follower lags and read candidates, cleared
     *  on each call and kept for their capacity. */
    std::vector<Tick> lags_;
    std::vector<unsigned> cand_;
};

} // namespace uqsim::replica

#endif // UQSIM_REPLICA_REPLICATION_HH
