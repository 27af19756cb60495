/**
 * @file
 * Unit and statistical tests of the stateful data tier's building
 * blocks: key popularity laws (chi-square against the closed-form
 * oracle), exact-trace replacement behaviour of the cache models
 * (LRU/LFU/SLRU, TTL, write policies, cold restarts), consistent-hash
 * shard placement (determinism, balance, minimal remap), the Che
 * approximation check that ties the emergent LRU hit ratio under IRM
 * Zipf traffic to queueing-theory ground truth, and a differential
 * test of the slab store against a node-based reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/rng.hh"
#include "data/cache_model.hh"
#include "data/config.hh"
#include "data/keyspace.hh"
#include "data/shard_map.hh"

namespace uqsim::data {
namespace {

// -- key popularity -----------------------------------------------------

/**
 * Chi-square of observed rank counts against the closed-form
 * rankProbability() oracle. The first `head` ranks are individual
 * cells; everything after is one tail cell.
 */
double
rankChiSquare(const KeyspaceConfig &cfg, std::uint64_t samples,
              std::uint64_t head, std::uint64_t seed)
{
    const KeyPopularity pop(cfg);
    Rng rng(seed);
    std::vector<std::uint64_t> counts(head + 1, 0);
    for (std::uint64_t i = 0; i < samples; ++i) {
        const std::uint64_t r = pop.sampleRank(rng);
        ++counts[r < head ? r : head];
    }
    double tail_p = 1.0;
    double chi2 = 0.0;
    for (std::uint64_t r = 0; r < head; ++r) {
        const double p = pop.rankProbability(r);
        tail_p -= p;
        const double expect = p * static_cast<double>(samples);
        const double diff = static_cast<double>(counts[r]) - expect;
        chi2 += diff * diff / expect;
    }
    const double tail_expect = tail_p * static_cast<double>(samples);
    const double tail_diff =
        static_cast<double>(counts[head]) - tail_expect;
    chi2 += tail_diff * tail_diff / tail_expect;
    return chi2;
}

TEST(KeyPopularityTest, ZipfRanksMatchClosedForm)
{
    KeyspaceConfig cfg;
    cfg.keys = 1000;
    cfg.zipfS = 1.0;
    // 31 cells -> 30 dof; chi-square 0.999 critical value is 59.7.
    EXPECT_LT(rankChiSquare(cfg, 200000, 30, 7), 59.7);

    cfg.zipfS = 1.3;
    EXPECT_LT(rankChiSquare(cfg, 200000, 30, 11), 59.7);
}

TEST(KeyPopularityTest, UniformRanksMatchClosedForm)
{
    KeyspaceConfig cfg;
    cfg.keys = 500;
    cfg.popularity = Popularity::Uniform;
    EXPECT_NEAR(KeyPopularity(cfg).rankProbability(0), 1.0 / 500, 1e-12);
    EXPECT_LT(rankChiSquare(cfg, 200000, 30, 13), 59.7);
}

TEST(KeyPopularityTest, HotspotConcentratesMass)
{
    KeyspaceConfig cfg;
    cfg.keys = 1000;
    cfg.popularity = Popularity::Hotspot;
    cfg.hotFraction = 0.1; // hot set = ranks [0, 100)
    cfg.hotMass = 0.9;
    const KeyPopularity pop(cfg);
    Rng rng(5);
    std::uint64_t hot = 0;
    const std::uint64_t n = 100000;
    for (std::uint64_t i = 0; i < n; ++i)
        if (pop.sampleRank(rng) < 100)
            ++hot;
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.9, 0.01);
    EXPECT_NEAR(pop.rankProbability(0), 0.9 / 100, 1e-12);
    EXPECT_NEAR(pop.rankProbability(999), 0.1 / 900, 1e-12);
}

TEST(KeyspaceTest, SampleConsumesExactlyOneDraw)
{
    // The keyed cache stage replaces a one-draw bernoulli, so a key
    // sample must advance the RNG stream by exactly one draw for every
    // popularity law — otherwise keyed runs perturb unrelated events.
    for (const Popularity p :
         {Popularity::Zipf, Popularity::Uniform, Popularity::Hotspot}) {
        KeyspaceConfig cfg;
        cfg.keys = 64;
        cfg.popularity = p;
        const Keyspace ks(cfg);
        Rng a(99), b(99);
        for (int i = 0; i < 100; ++i)
            ks.sampleKey(a, 0);
        for (int i = 0; i < 100; ++i)
            b.uniform01();
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(a.next(), b.next()) << popularityName(p);
    }
}

TEST(KeyspaceTest, ShiftRotatesTheHotSet)
{
    KeyspaceConfig cfg;
    cfg.keys = 100;
    cfg.shiftPeriod = 1000;
    const Keyspace ks(cfg);
    const std::uint64_t before = ks.keyForRank(0, 0);
    // Stable within a window, different across windows.
    EXPECT_EQ(ks.keyForRank(0, 999), before);
    EXPECT_NE(ks.keyForRank(0, 1000), before);
    EXPECT_NE(ks.keyForRank(0, 2000), ks.keyForRank(0, 1000));

    // The rotation is a permutation: two ranks never collide.
    EXPECT_NE(ks.keyForRank(0, 1000), ks.keyForRank(1, 1000));

    // Without a period the mapping is the identity for all time.
    cfg.shiftPeriod = 0;
    const Keyspace fixed(cfg);
    EXPECT_EQ(fixed.keyForRank(7, 0), 7u);
    EXPECT_EQ(fixed.keyForRank(7, 1u << 30), 7u);
}

// -- cache models -------------------------------------------------------

CacheModelConfig
cacheCfg(std::uint64_t capacity, CachePolicy policy = CachePolicy::Lru)
{
    CacheModelConfig c;
    c.capacity = capacity;
    c.policy = policy;
    return c;
}

TEST(CacheModelTest, LruExactTrace)
{
    CacheModel m(cacheCfg(3));
    // Fill: 1 2 3 all miss.
    EXPECT_FALSE(m.access(1, 0));
    EXPECT_FALSE(m.access(2, 0));
    EXPECT_FALSE(m.access(3, 0));
    // Touch 1 -> order (1, 3, 2) MRU..LRU.
    EXPECT_TRUE(m.access(1, 0));
    // 4 evicts 2 (LRU).
    EXPECT_FALSE(m.access(4, 0));
    EXPECT_FALSE(m.access(2, 0)); // gone; evicts 3
    EXPECT_FALSE(m.access(3, 0)); // gone; evicts 1
    EXPECT_TRUE(m.access(2, 0));  // still resident
    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ(m.stats().hits, 2u);
    EXPECT_EQ(m.stats().misses, 6u);
    EXPECT_EQ(m.stats().inserts, 6u);
    EXPECT_EQ(m.stats().evictions, 3u);
}

TEST(CacheModelTest, LfuKeepsFrequentKeys)
{
    CacheModel m(cacheCfg(2, CachePolicy::Lfu));
    m.access(1, 0);
    m.access(1, 0); // freq(1) = 2
    m.access(2, 0); // freq(2) = 1
    m.access(3, 0); // evicts 2, the least frequent
    EXPECT_TRUE(m.access(1, 0));
    EXPECT_FALSE(m.access(2, 0)); // evicts 3 (freq 1, FIFO)
    EXPECT_FALSE(m.access(3, 0));
}

TEST(CacheModelTest, SegmentedLruResistsScans)
{
    CacheModelConfig cfg = cacheCfg(10, CachePolicy::SegmentedLru);
    cfg.protectedFraction = 0.5;
    CacheModel m(cfg);
    // Two accesses promote the hot keys into the protected segment.
    for (std::uint64_t k = 1; k <= 4; ++k) {
        m.access(k, 0);
        m.access(k, 0);
    }
    // A long one-shot scan churns probation only.
    for (std::uint64_t k = 100; k < 200; ++k)
        m.access(k, 0);
    for (std::uint64_t k = 1; k <= 4; ++k)
        EXPECT_TRUE(m.access(k, 0)) << "hot key " << k << " scanned out";

    // Plain LRU of the same capacity loses the hot set to the scan.
    CacheModel lru(cacheCfg(10));
    for (std::uint64_t k = 1; k <= 4; ++k) {
        lru.access(k, 0);
        lru.access(k, 0);
    }
    for (std::uint64_t k = 100; k < 200; ++k)
        lru.access(k, 0);
    for (std::uint64_t k = 1; k <= 4; ++k)
        EXPECT_FALSE(lru.access(k, 0));
}

TEST(CacheModelTest, TtlExpiresEntries)
{
    CacheModelConfig cfg = cacheCfg(16);
    cfg.ttl = 100;
    CacheModel m(cfg);
    EXPECT_FALSE(m.access(1, 0));
    EXPECT_TRUE(m.access(1, 50));   // still fresh
    EXPECT_FALSE(m.access(1, 150)); // expired; reinstalls
    EXPECT_EQ(m.stats().expirations, 1u);
    // The reinstall refreshed the clock.
    EXPECT_TRUE(m.access(1, 200));
}

TEST(CacheModelTest, WriteThroughKeepsKeysWarm)
{
    CacheModelConfig cfg = cacheCfg(16);
    cfg.ttl = 100;
    CacheModel m(cfg);
    m.access(1, 0);
    m.write(1, 90); // refreshes the entry
    EXPECT_TRUE(m.access(1, 150));
    EXPECT_EQ(m.stats().writes, 1u);
    EXPECT_EQ(m.stats().invalidations, 0u);

    // Writing an absent key installs it (the written value is cached).
    m.write(2, 0);
    EXPECT_TRUE(m.access(2, 0));
}

TEST(CacheModelTest, WriteInvalidateEvicts)
{
    CacheModelConfig cfg = cacheCfg(16);
    cfg.write = WritePolicy::Invalidate;
    CacheModel m(cfg);
    m.access(1, 0);
    m.write(1, 0);
    EXPECT_FALSE(m.access(1, 0));
    EXPECT_EQ(m.stats().invalidations, 1u);
    // Invalidating an absent key is a no-op.
    m.write(99, 0);
    EXPECT_EQ(m.stats().invalidations, 1u);
    EXPECT_EQ(m.stats().writes, 2u);
}

TEST(CacheModelTest, EvictionAccountingIsExact)
{
    CacheModel m(cacheCfg(4));
    for (std::uint64_t k = 0; k < 10; ++k)
        m.access(k, 0);
    EXPECT_EQ(m.size(), 4u);
    EXPECT_EQ(m.stats().inserts, 10u);
    EXPECT_EQ(m.stats().evictions, 6u);
}

TEST(CacheModelTest, ClearColdDropsEverything)
{
    CacheModel m(cacheCfg(8));
    for (std::uint64_t k = 0; k < 5; ++k)
        m.access(k, 0);
    m.clearCold();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.stats().coldRestarts, 1u);
    EXPECT_FALSE(m.access(0, 0)); // everything must re-warm
}

TEST(CacheModelTest, DropWrittenAfterTrimsExactlyTheLogTail)
{
    CacheModel m(cacheCfg(16));
    for (std::uint64_t k = 0; k < 4; ++k)
        m.access(k, 100 * k); // written at 0, 100, 200, 300
    m.write(0, 350);          // refresh moves key 0 past the cutoff

    const std::uint64_t dropped = m.dropWrittenAfter(250);
    EXPECT_EQ(dropped, 2u); // keys 3 (t=300) and 0 (refreshed t=350)
    EXPECT_EQ(m.stats().replayDrops, 2u);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.access(1, 400)); // the applied prefix survives
    EXPECT_TRUE(m.access(2, 400));
    EXPECT_FALSE(m.access(3, 400)); // the un-replicated tail is gone

    // Trimming at or past the newest write is a no-op.
    EXPECT_EQ(m.dropWrittenAfter(1000), 0u);
}

// -- differential store test --------------------------------------------

/**
 * The node-based store CacheModel replaced: std::list recency lists
 * and a std::map of LFU frequency buckets, found through an
 * unordered_map. Same decisions, same counters (no registry).
 */
class ReferenceCacheModel
{
  public:
    explicit ReferenceCacheModel(CacheModelConfig config) : config_(config)
    {
        if (config_.policy == CachePolicy::SegmentedLru) {
            const double frac =
                std::clamp(config_.protectedFraction, 0.0, 1.0);
            protectedCapacity_ = std::min<std::uint64_t>(
                config_.capacity - 1,
                static_cast<std::uint64_t>(
                    frac * static_cast<double>(config_.capacity)));
        }
    }

    bool
    access(std::uint64_t key, Tick now)
    {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            if (expired(it->second, now)) {
                eraseEntry(key, it->second);
                ++stats_.expirations;
            } else {
                ++stats_.hits;
                touch(key, it->second);
                return true;
            }
        }
        ++stats_.misses;
        insert(key, now);
        return false;
    }

    void
    write(std::uint64_t key, Tick now)
    {
        ++stats_.writes;
        auto it = entries_.find(key);
        if (config_.write == WritePolicy::Through) {
            if (it != entries_.end()) {
                it->second.written = now;
                touch(key, it->second);
            } else {
                insert(key, now);
            }
            return;
        }
        if (it != entries_.end()) {
            eraseEntry(key, it->second);
            ++stats_.invalidations;
        }
    }

    void
    clearCold()
    {
        entries_.clear();
        recency_[0].clear();
        recency_[1].clear();
        freqBuckets_.clear();
        ++stats_.coldRestarts;
    }

    std::uint64_t
    dropWrittenAfter(Tick cutoff)
    {
        std::vector<std::uint64_t> victims;
        for (const auto &[key, e] : entries_)
            if (e.written > cutoff)
                victims.push_back(key);
        std::sort(victims.begin(), victims.end());
        for (std::uint64_t key : victims) {
            eraseEntry(key, entries_.find(key)->second);
            ++stats_.replayDrops;
        }
        return victims.size();
    }

    std::uint64_t size() const { return entries_.size(); }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::list<std::uint64_t>::iterator where;
        std::uint8_t segment = 0;
        std::uint64_t freq = 0;
        Tick written = 0;
    };

    bool
    expired(const Entry &e, Tick now) const
    {
        return config_.ttl != 0 && now >= e.written + config_.ttl;
    }

    void
    eraseEntry(std::uint64_t key, Entry &e)
    {
        if (config_.policy == CachePolicy::Lfu) {
            auto bit = freqBuckets_.find(e.freq);
            bit->second.erase(e.where);
            if (bit->second.empty())
                freqBuckets_.erase(bit);
        } else {
            recency_[e.segment].erase(e.where);
        }
        entries_.erase(key);
    }

    void
    insert(std::uint64_t key, Tick now)
    {
        while (entries_.size() >= config_.capacity)
            evictOne();
        Entry e;
        e.written = now;
        if (config_.policy == CachePolicy::Lfu) {
            e.freq = 1;
            auto &bucket = freqBuckets_[1];
            bucket.push_back(key);
            e.where = std::prev(bucket.end());
        } else {
            recency_[0].push_front(key);
            e.where = recency_[0].begin();
            e.segment = 0;
        }
        entries_.emplace(key, e);
        ++stats_.inserts;
    }

    void
    evictOne()
    {
        std::uint64_t victim = 0;
        switch (config_.policy) {
          case CachePolicy::Lru:
            victim = recency_[0].back();
            break;
          case CachePolicy::SegmentedLru:
            victim = recency_[0].empty() ? recency_[1].back()
                                         : recency_[0].back();
            break;
          case CachePolicy::Lfu:
            victim = freqBuckets_.begin()->second.front();
            break;
        }
        eraseEntry(victim, entries_.find(victim)->second);
        ++stats_.evictions;
    }

    void
    touch(std::uint64_t key, Entry &e)
    {
        switch (config_.policy) {
          case CachePolicy::Lru:
            recency_[0].splice(recency_[0].begin(), recency_[0], e.where);
            return;
          case CachePolicy::Lfu: {
            auto bit = freqBuckets_.find(e.freq);
            bit->second.erase(e.where);
            if (bit->second.empty())
                freqBuckets_.erase(bit);
            ++e.freq;
            auto &bucket = freqBuckets_[e.freq];
            bucket.push_back(key);
            e.where = std::prev(bucket.end());
            return;
          }
          case CachePolicy::SegmentedLru:
            if (e.segment == 1) {
                recency_[1].splice(recency_[1].begin(), recency_[1],
                                   e.where);
                return;
            }
            recency_[0].erase(e.where);
            recency_[1].push_front(key);
            e.where = recency_[1].begin();
            e.segment = 1;
            if (recency_[1].size() > protectedCapacity_ &&
                recency_[1].size() > 1) {
                const std::uint64_t demoted = recency_[1].back();
                recency_[1].pop_back();
                recency_[0].push_front(demoted);
                Entry &d = entries_.find(demoted)->second;
                d.where = recency_[0].begin();
                d.segment = 0;
            }
            return;
        }
    }

    CacheModelConfig config_;
    std::uint64_t protectedCapacity_ = 0;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::list<std::uint64_t> recency_[2];
    std::map<std::uint64_t, std::list<std::uint64_t>> freqBuckets_;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.coldRestarts, b.coldRestarts);
    EXPECT_EQ(a.replayDrops, b.replayDrops);
}

/**
 * Random access/write/clearCold/dropWrittenAfter streams through the
 * slab store and the reference, over every policy x write policy,
 * TTL on and off, and capacities from 1 up: with 3-24 keys on 1-8
 * slots nearly every miss evicts, and promotions, demotions, bucket
 * moves and expiries come every few operations; two larger stores per
 * case grow the slab and the index through several doublings. Every
 * hit/miss, trim count, size() and stats() must agree.
 */
TEST(CacheModelTest, SlabStoreMatchesNodeReference)
{
    std::uint64_t hits = 0, expirations = 0, evictions = 0, drops = 0;
    for (const CachePolicy policy : {CachePolicy::Lru, CachePolicy::Lfu,
                                     CachePolicy::SegmentedLru})
        for (const WritePolicy wp :
             {WritePolicy::Through, WritePolicy::Invalidate})
            for (const Tick ttl : {Tick(0), Tick(40)})
                for (std::uint64_t seed = 1; seed <= 12; ++seed) {
                    Rng rng(seed * 1000003 + static_cast<unsigned>(policy));
                    CacheModelConfig cfg;
                    // The last seeds grow the slab and the index
                    // through several doublings.
                    const bool large = seed > 10;
                    cfg.capacity = large ? 200 + rng.next() % 200
                                         : 1 + rng.next() % 8;
                    cfg.policy = policy;
                    cfg.write = wp;
                    cfg.ttl = ttl;
                    cfg.protectedFraction =
                        static_cast<double>(rng.next() % 5) / 4.0;
                    const std::uint64_t keys =
                        large ? cfg.capacity * (1 + rng.next() % 3)
                              : 3 + rng.next() % 22;
                    CacheModel m(cfg);
                    ReferenceCacheModel ref(cfg);
                    Tick now = 0;
                    for (int op = 0; op < 4000; ++op) {
                        now += rng.next() % 4;
                        const std::uint64_t key = rng.next() % keys;
                        const std::uint64_t dice = rng.next() % 1000;
                        if (dice < 700) {
                            const bool hit = m.access(key, now);
                            ASSERT_EQ(hit, ref.access(key, now))
                                << "op " << op << " seed " << seed;
                        } else if (dice < 980) {
                            m.write(key, now);
                            ref.write(key, now);
                        } else if (dice < 995) {
                            const Tick back = rng.next() % 60;
                            const Tick cutoff = now > back ? now - back : 0;
                            ASSERT_EQ(m.dropWrittenAfter(cutoff),
                                      ref.dropWrittenAfter(cutoff));
                        } else {
                            m.clearCold();
                            ref.clearCold();
                        }
                        ASSERT_EQ(m.size(), ref.size()) << "op " << op;
                    }
                    expectSameStats(m.stats(), ref.stats());
                    hits += m.stats().hits;
                    expirations += m.stats().expirations;
                    evictions += m.stats().evictions;
                    drops += m.stats().replayDrops;
                }
    // The streams reach every path they are meant to compare.
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(expirations, 1000u);
    EXPECT_GT(evictions, 10000u);
    EXPECT_GT(drops, 100u);
}

// -- shard placement ----------------------------------------------------

TEST(ShardMapTest, DeterministicAndReasonablyBalanced)
{
    ShardMap a(64), b(64);
    a.rebuild(8);
    b.rebuild(8);
    std::vector<std::uint64_t> counts(8, 0);
    for (std::uint64_t k = 0; k < 100000; ++k) {
        const unsigned s = a.shardFor(k);
        EXPECT_EQ(s, b.shardFor(k));
        ASSERT_LT(s, 8u);
        ++counts[s];
    }
    // 64 vnodes/shard keeps imbalance well under 2x of fair share.
    for (unsigned s = 0; s < 8; ++s) {
        EXPECT_GT(counts[s], 100000 / 8 / 2) << "shard " << s;
        EXPECT_LT(counts[s], 100000 / 8 * 2) << "shard " << s;
    }
}

TEST(ShardMapTest, GrowingMovesAboutOneNth)
{
    ShardMap before(64), after(64);
    before.rebuild(8);
    after.rebuild(9);
    std::uint64_t moved = 0;
    const std::uint64_t n = 100000;
    for (std::uint64_t k = 0; k < n; ++k)
        if (before.shardFor(k) != after.shardFor(k))
            ++moved;
    // Expected 1/9 of the keys; modulo placement would move ~8/9.
    const double frac = static_cast<double>(moved) / n;
    EXPECT_GT(frac, 0.03);
    EXPECT_LT(frac, 0.25);
}

TEST(ShardMapTest, RemovingAShardMovesOnlyItsOwnKeys)
{
    ShardMap before(64), after(64);
    before.rebuild(8);
    after.rebuild(8);
    after.removeShard(3);
    EXPECT_FALSE(after.hasShard(3));
    EXPECT_TRUE(after.hasShard(2));
    EXPECT_EQ(after.shards(), 7u);

    std::uint64_t moved = 0, evacuated = 0;
    const std::uint64_t n = 100000;
    for (std::uint64_t k = 0; k < n; ++k) {
        const unsigned was = before.shardFor(k);
        const unsigned now = after.shardFor(k);
        EXPECT_NE(now, 3u) << "key " << k << " still on the dead shard";
        if (was == 3u) {
            ++evacuated;
            EXPECT_NE(now, was);
        } else {
            // Every other key's owner is stable: the shrink mirror of
            // the grow-remap bound (modulo would reshuffle ~7/8).
            EXPECT_EQ(now, was) << "key " << k << " moved gratuitously";
        }
        if (was != now)
            ++moved;
    }
    EXPECT_EQ(moved, evacuated);
    const double frac = static_cast<double>(moved) / n;
    EXPECT_GT(frac, 0.03); // ~1/8 of the keyspace, not 0
    EXPECT_LT(frac, 0.25); // and nowhere near a full reshuffle
}

TEST(ShardMapTest, HotKeyOwnsExactlyOneShard)
{
    ShardMap m(64);
    m.rebuild(16);
    const unsigned owner = m.shardFor(0); // rank-0: the hottest key
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.shardFor(0), owner);
}

// -- Che approximation --------------------------------------------------

/**
 * Che's approximation for LRU under IRM: the characteristic time T_c
 * solves sum_i (1 - e^{-p_i T_c}) = C, and the hit ratio is
 * H = sum_i p_i (1 - e^{-p_i T_c}).
 */
double
cheHitRatio(const KeyPopularity &pop, std::uint64_t keys,
            std::uint64_t capacity)
{
    std::vector<double> p(keys);
    for (std::uint64_t i = 0; i < keys; ++i)
        p[i] = pop.rankProbability(i);
    double lo = 0.0, hi = 1.0;
    auto occupancy = [&](double t) {
        double sum = 0.0;
        for (const double pi : p)
            sum += 1.0 - std::exp(-pi * t);
        return sum;
    };
    while (occupancy(hi) < static_cast<double>(capacity))
        hi *= 2.0;
    for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        (occupancy(mid) < static_cast<double>(capacity) ? lo : hi) = mid;
    }
    const double tc = 0.5 * (lo + hi);
    double h = 0.0;
    for (const double pi : p)
        h += pi * (1.0 - std::exp(-pi * tc));
    return h;
}

TEST(CacheModelTest, LruHitRatioMatchesCheApproximation)
{
    // IRM Zipf accesses through one LRU store: the *emergent* hit
    // ratio must land within 2% (absolute) of Che's approximation —
    // the acceptance bar for the whole keyed data tier.
    KeyspaceConfig cfg;
    cfg.keys = 10000;
    cfg.zipfS = 0.8;
    const KeyPopularity pop(cfg);
    const std::uint64_t capacity = 1000;
    CacheModel m(cacheCfg(capacity));
    Rng rng(17);

    // Warm until the store is full and the hot set has settled.
    for (std::uint64_t i = 0; i < 100000; ++i)
        m.access(pop.sampleRank(rng), 0);
    const CacheStats warm = m.stats();
    for (std::uint64_t i = 0; i < 400000; ++i)
        m.access(pop.sampleRank(rng), 0);
    const CacheStats done = m.stats();

    const double hits = static_cast<double>(done.hits - warm.hits);
    const double misses =
        static_cast<double>(done.misses - warm.misses);
    const double measured = hits / (hits + misses);
    const double predicted = cheHitRatio(pop, cfg.keys, capacity);
    EXPECT_NEAR(measured, predicted, 0.02)
        << "emergent LRU hit ratio drifted from Che's approximation";
}

// -- name parsing -------------------------------------------------------

TEST(DataNamesTest, RoundTrip)
{
    CachePolicy pol;
    EXPECT_TRUE(cachePolicyByName("slru", pol));
    EXPECT_EQ(pol, CachePolicy::SegmentedLru);
    EXPECT_STREQ(cachePolicyName(CachePolicy::SegmentedLru), "slru");
    EXPECT_FALSE(cachePolicyByName("mru", pol));

    Popularity pop;
    EXPECT_TRUE(popularityByName("hotspot", pop));
    EXPECT_EQ(pop, Popularity::Hotspot);
    EXPECT_FALSE(popularityByName("pareto", pop));

    WritePolicy wp;
    EXPECT_TRUE(writePolicyByName("invalidate", wp));
    EXPECT_EQ(wp, WritePolicy::Invalidate);
    EXPECT_FALSE(writePolicyByName("back", wp));
}

} // namespace
} // namespace uqsim::data
