#include "replica/replication.hh"

#include <algorithm>

#include "core/logging.hh"
#include "data/shard_map.hh"

namespace uqsim::replica {

namespace {

/** Salt so the nearest-member pick never correlates with shard owner. */
constexpr std::uint64_t kNearestSalt = 0x5245504c49434153ull;

} // namespace

const char *
readPreferenceName(ReadPreference p)
{
    switch (p) {
      case ReadPreference::Leader:
        return "leader";
      case ReadPreference::Nearest:
        return "nearest";
      case ReadPreference::ReadYourWrites:
        return "read-your-writes";
    }
    return "unknown";
}

bool
readPreferenceByName(const std::string &name, ReadPreference &out)
{
    if (name == "leader")
        out = ReadPreference::Leader;
    else if (name == "nearest")
        out = ReadPreference::Nearest;
    else if (name == "read-your-writes" || name == "ryw")
        out = ReadPreference::ReadYourWrites;
    else
        return false;
    return true;
}

ReplicaSet::ReplicaSet(ReplicationConfig cfg, unsigned instances)
    : cfg_(cfg), instances_(instances)
{
    if (instances_ == 0)
        fatal("ReplicaSet over zero instances");
    if (!cfg_.enabled())
        fatal("ReplicaSet with factor < 2");
    if (cfg_.writeQuorum > cfg_.factor)
        fatal("replica write quorum exceeds the replication factor");
    n_ = std::min(cfg_.factor, instances_);
    quorum_ = std::max(1u, std::min(cfg_.quorum(), n_));
    members_.resize(instances_);
    groups_.resize(instances_);
    for (unsigned g = 0; g < instances_; ++g) {
        groups_[g].history.push_back({1, memberAt(g, 0)});
    }
}

Tick
ReplicaSet::lagOf(const Group &g, unsigned pos) const
{
    const unsigned lead =
        g.leaderPos >= 0 ? static_cast<unsigned>(g.leaderPos) : 0u;
    const unsigned dist = (pos + n_ - lead) % n_;
    return cfg_.applyLag * dist;
}

bool
ReplicaSet::connected(unsigned a, unsigned b) const
{
    return a == b || !severed_ || !severed_(a, b);
}

bool
ReplicaSet::eligibleAt(unsigned group, unsigned pos, Tick now) const
{
    const Member &m = members_[memberAt(group, pos)];
    return m.up && m.catchUpUntil <= now;
}

void
ReplicaSet::depose(unsigned group, Tick now)
{
    Group &g = groups_[group];
    g.prevLeaderPos = g.leaderPos;
    g.leaderPos = -1;
    g.electionEndsAt = now + cfg_.electionTimeout;
    g.deposedAt = now;
    ++counts_.electionsStarted;
}

void
ReplicaSet::advance(unsigned group, Tick now)
{
    Group &g = groups_[group];
    if (g.dead || g.leaderPos >= 0 || now < g.electionEndsAt)
        return;

    // Candidates: up, caught-up members. A leader is promoted only out
    // of the largest connected component among them, and only when
    // that component reaches the quorum — the minority side of a
    // partition can never crown a second leader, so one-leader-per-term
    // holds by construction.
    std::vector<unsigned> cand;
    for (unsigned p = 0; p < n_; ++p)
        if (eligibleAt(group, p, now))
            cand.push_back(p);
    if (cand.empty())
        return;

    std::vector<int> comp(cand.size(), -1);
    int comps = 0;
    for (std::size_t i = 0; i < cand.size(); ++i) {
        if (comp[i] >= 0)
            continue;
        comp[i] = comps;
        // Flood fill over the (tiny) candidate set.
        std::vector<std::size_t> stack{i};
        while (!stack.empty()) {
            const std::size_t cur = stack.back();
            stack.pop_back();
            for (std::size_t j = 0; j < cand.size(); ++j) {
                if (comp[j] >= 0)
                    continue;
                if (connected(memberAt(group, cand[cur]),
                              memberAt(group, cand[j]))) {
                    comp[j] = comps;
                    stack.push_back(j);
                }
            }
        }
        ++comps;
    }
    // Largest component; ties go to the one holding the lowest
    // position (components are discovered in position order, so the
    // first maximal one wins).
    int best = -1;
    std::size_t best_size = 0;
    for (int c = 0; c < comps; ++c) {
        const std::size_t size = static_cast<std::size_t>(
            std::count(comp.begin(), comp.end(), c));
        if (size > best_size) {
            best = c;
            best_size = size;
        }
    }
    if (best_size < quorum_)
        return;

    unsigned promoted = 0;
    for (std::size_t i = 0; i < cand.size(); ++i) {
        if (comp[i] == best) {
            promoted = cand[i]; // lowest position = most caught-up
            break;
        }
    }
    g.leaderPos = static_cast<int>(promoted);
    ++g.term;
    g.history.push_back({g.term, memberAt(group, promoted)});
    ++counts_.failovers;

    // Log-replay trim: the promoted member had applied the log only up
    // to deposedAt minus its lag behind the deposed leader. Everything
    // younger is the un-replicated tail and must leave the store.
    const unsigned prev = g.prevLeaderPos >= 0
                              ? static_cast<unsigned>(g.prevLeaderPos)
                              : 0u;
    const unsigned dist = (promoted + n_ - prev) % n_;
    if (dist > 0) {
        const Tick tail = cfg_.applyLag * dist;
        g.trimPending = true;
        g.trimCutoff = g.deposedAt > tail ? g.deposedAt - tail : 0;
        ++counts_.trims;
    }
}

void
ReplicaSet::onInstanceDown(unsigned inst, Tick now)
{
    if (inst >= instances_)
        fatal("ReplicaSet::onInstanceDown out of range");
    members_[inst].up = false;
    for (unsigned p = 0; p < n_; ++p) {
        const unsigned group = (inst + instances_ - p) % instances_;
        Group &g = groups_[group];
        if (g.dead)
            continue;
        bool any_up = false;
        for (unsigned q = 0; q < n_; ++q)
            if (members_[memberAt(group, q)].up)
                any_up = true;
        if (!any_up) {
            // The whole group died: its data is gone for real, the
            // same total loss an unreplicated shard suffers.
            g.dead = true;
            g.clearPending = true;
            g.trimPending = false;
            g.prevLeaderPos = g.leaderPos;
            g.leaderPos = -1;
            ++counts_.storeLosses;
            continue;
        }
        if (g.leaderPos == static_cast<int>(p))
            depose(group, now);
    }
}

void
ReplicaSet::onInstanceUp(unsigned inst, Tick now)
{
    if (inst >= instances_)
        fatal("ReplicaSet::onInstanceUp out of range");
    members_[inst].up = true;
    members_[inst].catchUpUntil = now + cfg_.catchUp;
    ++counts_.catchUps;
    for (unsigned p = 0; p < n_; ++p) {
        const unsigned group = (inst + instances_ - p) % instances_;
        Group &g = groups_[group];
        if (!g.dead)
            continue;
        // First member back after total loss: the group revives around
        // an empty store (clearPending still owed) and elects afresh.
        g.dead = false;
        g.hasWrite = false;
        depose(group, now);
    }
}

void
ReplicaSet::onTopologyChange(Tick now)
{
    for (unsigned group = 0; group < instances_; ++group) {
        Group &g = groups_[group];
        if (g.dead || g.leaderPos < 0)
            continue;
        const unsigned lead =
            memberAt(group, static_cast<unsigned>(g.leaderPos));
        unsigned reach = 0;
        for (unsigned p = 0; p < n_; ++p)
            if (eligibleAt(group, p, now) &&
                connected(lead, memberAt(group, p)))
                ++reach;
        // A leader cut off from its quorum steps down; the majority
        // side elects a successor after the election timeout.
        if (reach < quorum_)
            depose(group, now);
    }
}

Maintenance
ReplicaSet::poll(unsigned group, Tick now)
{
    advance(group, now);
    Group &g = groups_[group];
    Maintenance m;
    m.clearStore = g.clearPending;
    m.trim = g.trimPending;
    m.trimCutoff = g.trimCutoff;
    g.clearPending = false;
    g.trimPending = false;
    return m;
}

RouteDecision
ReplicaSet::route(unsigned group, std::uint64_t key, bool write,
                  Tick now, bool count)
{
    if (group >= instances_)
        fatal("ReplicaSet::route out of range");
    advance(group, now);
    Group &g = groups_[group];
    RouteDecision d;
    if (g.dead) {
        d.verdict = Verdict::Unreachable;
        return d;
    }

    if (write) {
        if (g.leaderPos < 0) {
            if (count)
                ++counts_.quorumLostWrites;
            d.verdict = Verdict::QuorumLost;
            return d;
        }
        // Eligible ack set: the leader plus every up, caught-up
        // follower it can reach. Deterministic per-position lags make
        // the quorum delay the (W-1)-th fastest follower's lag.
        const unsigned lead =
            memberAt(group, static_cast<unsigned>(g.leaderPos));
        std::vector<Tick> &lags = lags_;
        lags.clear();
        for (unsigned p = 0; p < n_; ++p) {
            if (static_cast<int>(p) == g.leaderPos)
                continue;
            if (eligibleAt(group, p, now) &&
                connected(lead, memberAt(group, p)))
                lags.push_back(lagOf(g, p));
        }
        if (1 + lags.size() < quorum_) {
            if (count)
                ++counts_.quorumLostWrites;
            d.verdict = Verdict::QuorumLost;
            return d;
        }
        std::sort(lags.begin(), lags.end());
        d.instance = lead;
        d.quorumDelay = quorum_ >= 2 ? lags[quorum_ - 2] : 0;
        return d;
    }

    // Reads. Serving candidates: up, caught-up members in position
    // order (the leader, when present, is candidates[leaderPos slot]).
    std::vector<unsigned> &cand = cand_;
    cand.clear();
    for (unsigned p = 0; p < n_; ++p)
        if (eligibleAt(group, p, now))
            cand.push_back(p);

    switch (cfg_.readPreference) {
      case ReadPreference::Leader: {
        if (g.leaderPos < 0) {
            if (count)
                ++counts_.quorumLostReads;
            d.verdict = Verdict::QuorumLost;
            return d;
        }
        d.instance = memberAt(group, static_cast<unsigned>(g.leaderPos));
        return d;
      }
      case ReadPreference::Nearest: {
        if (cand.empty()) {
            if (count)
                ++counts_.quorumLostReads;
            d.verdict = Verdict::QuorumLost;
            return d;
        }
        const unsigned pick = cand[data::mixKey(key ^ kNearestSalt) %
                                   cand.size()];
        d.instance = memberAt(group, pick);
        // Anything but the sitting leader may serve lagged data; this
        // is the availability-for-freshness trade the preference buys
        // (reads keep flowing right through an election).
        d.stale = g.leaderPos < 0 ||
                  pick != static_cast<unsigned>(g.leaderPos);
        if (d.stale && count)
            ++counts_.staleReads;
        return d;
      }
      case ReadPreference::ReadYourWrites: {
        if (cand.empty()) {
            if (count)
                ++counts_.quorumLostReads;
            d.verdict = Verdict::QuorumLost;
            return d;
        }
        const unsigned pick = cand[data::mixKey(key ^ kNearestSalt) %
                                   cand.size()];
        if (g.leaderPos < 0) {
            // Mid-election there is no fresh copy to redirect to. A
            // recent write makes freshness unsatisfiable: typed reject
            // (retryable — the election will finish). Old data is
            // safely replicated everywhere and can be served.
            const Tick bound = cfg_.applyLag * (n_ - 1);
            if (g.hasWrite && now < g.lastWriteAt + bound +
                                        (now - g.deposedAt)) {
                if (count)
                    ++counts_.staleRejects;
                d.verdict = Verdict::StaleRead;
                return d;
            }
            d.instance = memberAt(group, pick);
            d.stale = true;
            if (count)
                ++counts_.staleReads;
            return d;
        }
        const bool fresh_needed =
            g.hasWrite && now < g.lastWriteAt + lagOf(g, pick);
        if (fresh_needed &&
            pick != static_cast<unsigned>(g.leaderPos)) {
            d.instance =
                memberAt(group, static_cast<unsigned>(g.leaderPos));
            d.redirected = true;
            if (count)
                ++counts_.rywRedirects;
            return d;
        }
        d.instance = memberAt(group, pick);
        return d;
      }
    }
    fatal("unhandled read preference");
}

void
ReplicaSet::recordWrite(unsigned group, Tick now)
{
    Group &g = groups_[group];
    g.hasWrite = true;
    g.lastWriteAt = now;
}

int
ReplicaSet::leaderOf(unsigned group, Tick now)
{
    advance(group, now);
    const Group &g = groups_[group];
    if (g.leaderPos < 0)
        return -1;
    return static_cast<int>(
        memberAt(group, static_cast<unsigned>(g.leaderPos)));
}

std::uint64_t
ReplicaSet::termOf(unsigned group) const
{
    return groups_[group].term;
}

const std::vector<TermRecord> &
ReplicaSet::history(unsigned group) const
{
    return groups_[group].history;
}

bool
ReplicaSet::dead(unsigned group) const
{
    return groups_[group].dead;
}

Tick
ReplicaSet::stalenessBound(unsigned group, Tick now) const
{
    const Group &g = groups_[group];
    if (g.dead)
        return 0;
    if (g.leaderPos < 0)
        return now - g.deposedAt; // election gap: nobody applies
    Tick worst = 0;
    for (unsigned p = 0; p < n_; ++p) {
        if (static_cast<int>(p) == g.leaderPos)
            continue;
        if (eligibleAt(group, p, now))
            worst = std::max(worst, lagOf(g, p));
    }
    return worst;
}

Tick
ReplicaSet::maxStalenessBound(Tick now) const
{
    Tick worst = 0;
    for (unsigned g = 0; g < instances_; ++g)
        worst = std::max(worst, stalenessBound(g, now));
    return worst;
}

} // namespace uqsim::replica
