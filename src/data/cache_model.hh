/**
 * @file
 * Bounded-memory cache models with emergent hit/miss behaviour.
 *
 * A CacheModel is one cache process's resident set: a bounded number
 * of entries managed by LRU, LFU or segmented-LRU replacement, with
 * optional TTL expiry and a write policy (write-through keeps written
 * keys warm; write-invalidate evicts them). Hit/miss is *emergent*
 * from the access stream and the capacity — there is no hit-probability
 * knob — which is what makes cold caches after a crash, warm-up
 * transients after scale-out, and working-set effects under skew
 * reproducible phenomena instead of inputs.
 *
 * The model is fill-on-miss (cache-aside): a read miss installs the
 * key immediately, as trace-driven cache simulators do; fill latency
 * is modelled by the database RPC the handler issues on the miss, not
 * inside the cache.
 *
 * Layout. Each resident key is one slot of a flat slab (a vector with
 * a free list of vacated slots): the key, its written time, uint32
 * prev/next links and the list that holds it. Every replacement order
 * is a doubly linked list threaded through those links:
 *
 *  - LRU: one recency list, most recent at the head;
 *  - SLRU: the probation and protected segments, each such a list;
 *  - LFU: one FIFO list per frequency bucket. The buckets form a
 *    pooled list of their own, in ascending frequency, so the coldest
 *    bucket is its head; a touch moves a key to the bucket of f + 1,
 *    made right after f's when there is none.
 *
 * A key finds its slot through an open-addressing table of slot
 * indices: a power-of-two size, linear probing from a multiplicative
 * hash, deletion by backward shift, and at most half full.
 *
 * Determinism. Every replacement decision reads list order only,
 * which each operation updates exactly as the node-based reference
 * model of tests/data_test.cc does; slot and bucket indices and the
 * table layout decide nothing. dropWrittenAfter() walks the slab, and
 * removing a set of keys from linked lists leaves the same order
 * whatever the order of removal.
 *
 * Allocation. The slab, the bucket pool and the table grow
 * geometrically on demand (the slab and the pool never past
 * `capacity` entries; nothing is reserved up front) and clearCold()
 * keeps what they hold. Once they have grown, access, write, eviction,
 * promotion, demotion, expiry, clearCold() and dropWrittenAfter()
 * allocate nothing.
 */

#ifndef UQSIM_DATA_CACHE_MODEL_HH
#define UQSIM_DATA_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/types.hh"

namespace uqsim::data {

/** Replacement policy. */
enum class CachePolicy
{
    Lru,           ///< classic least-recently-used (memcached default)
    Lfu,           ///< least-frequently-used, FIFO within a frequency
    SegmentedLru,  ///< probation + protected segments (scan-resistant)
};

/** What a write does to the cached copy. */
enum class WritePolicy
{
    Through,     ///< write updates the cache entry (stays warm)
    Invalidate,  ///< write evicts the entry (next read misses)
};

const char *cachePolicyName(CachePolicy p);
bool cachePolicyByName(const std::string &name, CachePolicy &out);
const char *writePolicyName(WritePolicy p);
bool writePolicyByName(const std::string &name, WritePolicy &out);

/** Configuration of one cache instance's store. */
struct CacheModelConfig
{
    /** Resident-set capacity in entries (must be > 0). */
    std::uint64_t capacity = 4096;

    CachePolicy policy = CachePolicy::Lru;

    WritePolicy write = WritePolicy::Through;

    /** Entry time-to-live (0 = entries never expire). */
    Tick ttl = 0;

    /** Fraction of capacity given to the protected segment (SLRU). */
    double protectedFraction = 0.8;
};

/** Cumulative per-instance accounting. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t expirations = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t writes = 0;
    /** Cold restarts (crash or fresh scale-out replica). */
    std::uint64_t coldRestarts = 0;
    /** Entries lost to the un-replicated log tail on a failover. */
    std::uint64_t replayDrops = 0;

    double
    hitRatio() const
    {
        const std::uint64_t n = hits + misses;
        return n ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
    }
};

/**
 * One cache instance's keyed store.
 */
class CacheModel
{
  public:
    explicit CacheModel(CacheModelConfig config);

    CacheModel(const CacheModel &) = delete;
    CacheModel &operator=(const CacheModel &) = delete;

    const CacheModelConfig &config() const { return config_; }

    /**
     * Bind shared per-tier counters (data.<tier>.*). Instances of a
     * tier share the counters; per-instance detail stays in stats().
     */
    void bindMetrics(MetricsRegistry &m, const std::string &tier);

    /**
     * One read access to @p key at time @p now. @return true on hit.
     * A miss installs the key (fill-on-miss), evicting per policy.
     */
    bool access(std::uint64_t key, Tick now);

    /** One write: apply the write policy (update or invalidate). */
    void write(std::uint64_t key, Tick now);

    /** Drop everything: the process died or just started. */
    void clearCold();

    /**
     * Log-replay trim: drop every entry written (inserted or
     * refreshed) after @p cutoff. A promoted follower's store is the
     * leader's store minus the un-applied log tail — everything older
     * than its lag survives, which is what makes failover a *warm*
     * restart instead of clearCold()'s full dip. @return entries
     * dropped (counted as replayDrops).
     */
    std::uint64_t dropWrittenAfter(Tick cutoff);

    /** Resident entries right now. */
    std::uint64_t size() const { return live_; }

    const CacheStats &stats() const { return stats_; }

  private:
    /** No slot, no bucket; an empty table cell. */
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** One resident key (a free slot has list == kNil). */
    struct Slot
    {
        std::uint64_t key = 0;
        /** Insert/refresh time for TTL expiry. */
        Tick written = 0;
        /** Neighbours in the slot's list; next also threads the free
         *  list. */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        /** LRU/SLRU: the segment (0 probation/LRU, 1 protected).
         *  LFU: the frequency bucket. */
        std::uint32_t list = kNil;
    };

    /** A doubly linked list of slots. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t size = 0;
    };

    /** An LFU frequency bucket: its keys, oldest at the head. */
    struct Bucket
    {
        std::uint64_t freq = 0;
        List keys;
        /** Neighbours in ascending frequency; next also threads the
         *  free list. */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    bool expired(const Slot &s, Tick now) const;
    /** Slot holding @p key, or kNil. */
    std::uint32_t find(std::uint64_t key) const;
    /** Remove slot @p i from its list and the index, and free it. */
    void erase(std::uint32_t i);
    /** Install @p key, evicting per policy if at capacity. */
    void insert(std::uint64_t key, Tick now);
    void evictOne();
    /** Move slot @p i to the front of its recency order after a hit. */
    void touch(std::uint32_t i);

    List &listOf(const Slot &s);
    void pushFront(List &l, std::uint32_t i);
    void pushBack(List &l, std::uint32_t i);
    void unlink(List &l, std::uint32_t i);

    /** A free bucket of frequency @p freq, linked after @p prev (at
     *  the head for kNil). */
    std::uint32_t newBucket(std::uint64_t freq, std::uint32_t prev);
    /** Unlink the empty bucket @p b and free it. */
    void dropBucket(std::uint32_t b);

    /** Home cell of @p key in the index. */
    std::size_t home(std::uint64_t key) const;
    /** Index cell holding @p key, or the empty cell ending its probe. */
    std::size_t probe(std::uint64_t key) const;
    /** Empty cell @p hole, shifting the cells after it back. */
    void unindex(std::size_t hole);
    /** Double the index (or make its first cells). */
    void growIndex();

    CacheModelConfig config_;
    std::uint64_t protectedCapacity_ = 0;

    /** The slab: resident keys and vacated slots. */
    std::vector<Slot> slots_;
    std::uint32_t freeSlot_ = kNil;
    std::uint64_t live_ = 0;
    /** Recency lists, MRU at the head: [0] probation/LRU, [1]
     *  protected. */
    List segments_[2];
    /** LFU buckets and the head of their list (the coldest). */
    std::vector<Bucket> buckets_;
    std::uint32_t freeBucket_ = kNil;
    std::uint32_t coldest_ = kNil;
    /** Slot indices by key hash (kNil = empty). */
    std::vector<std::uint32_t> index_;
    /** 64 - log2(index_.size()): home() keeps the hash's top bits. */
    unsigned indexShift_ = 64;

    CacheStats stats_;
    /** Shared tier counters (null until bindMetrics). */
    Counter *hits_ = nullptr;
    Counter *misses_ = nullptr;
    Counter *inserts_ = nullptr;
    Counter *evictions_ = nullptr;
    Counter *expirations_ = nullptr;
    Counter *invalidations_ = nullptr;
    Counter *writes_ = nullptr;
    Counter *coldRestarts_ = nullptr;
    Counter *replayDrops_ = nullptr;
};

} // namespace uqsim::data

#endif // UQSIM_DATA_CACHE_MODEL_HH
