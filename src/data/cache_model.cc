#include "data/cache_model.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim::data {

namespace {

inline void
bump(Counter *c)
{
    if (c)
        c->inc();
}

/** Make room for one more element: double @p v's capacity, from 16
 *  and never past @p limit elements. */
template <typename T>
void
reserveOneMore(std::vector<T> &v, std::uint64_t limit)
{
    if (v.size() == v.capacity())
        v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
            std::max<std::size_t>(2 * v.size(), 16), limit)));
}

} // namespace

const char *
cachePolicyName(CachePolicy p)
{
    switch (p) {
      case CachePolicy::Lru:
        return "lru";
      case CachePolicy::Lfu:
        return "lfu";
      case CachePolicy::SegmentedLru:
        return "slru";
    }
    return "unknown";
}

bool
cachePolicyByName(const std::string &name, CachePolicy &out)
{
    if (name == "lru")
        out = CachePolicy::Lru;
    else if (name == "lfu")
        out = CachePolicy::Lfu;
    else if (name == "slru")
        out = CachePolicy::SegmentedLru;
    else
        return false;
    return true;
}

const char *
writePolicyName(WritePolicy p)
{
    switch (p) {
      case WritePolicy::Through:
        return "through";
      case WritePolicy::Invalidate:
        return "invalidate";
    }
    return "unknown";
}

bool
writePolicyByName(const std::string &name, WritePolicy &out)
{
    if (name == "through")
        out = WritePolicy::Through;
    else if (name == "invalidate")
        out = WritePolicy::Invalidate;
    else
        return false;
    return true;
}

CacheModel::CacheModel(CacheModelConfig config) : config_(config)
{
    if (config_.capacity == 0)
        fatal("CacheModel with zero capacity");
    if (config_.policy == CachePolicy::SegmentedLru) {
        const double frac =
            std::clamp(config_.protectedFraction, 0.0, 1.0);
        protectedCapacity_ = std::min<std::uint64_t>(
            config_.capacity - 1,
            static_cast<std::uint64_t>(
                frac * static_cast<double>(config_.capacity)));
    }
}

void
CacheModel::bindMetrics(MetricsRegistry &m, const std::string &tier)
{
    hits_ = &m.counter("data." + tier + ".hits");
    misses_ = &m.counter("data." + tier + ".misses");
    inserts_ = &m.counter("data." + tier + ".inserts");
    evictions_ = &m.counter("data." + tier + ".evictions");
    expirations_ = &m.counter("data." + tier + ".expirations");
    invalidations_ = &m.counter("data." + tier + ".invalidations");
    writes_ = &m.counter("data." + tier + ".writes");
    coldRestarts_ = &m.counter("data." + tier + ".cold_restarts");
    replayDrops_ = &m.counter("data." + tier + ".replay_drops");
}

bool
CacheModel::expired(const Slot &s, Tick now) const
{
    return config_.ttl != 0 && now >= s.written + config_.ttl;
}

bool
CacheModel::access(std::uint64_t key, Tick now)
{
    const std::uint32_t i = find(key);
    if (i != kNil) {
        if (expired(slots_[i], now)) {
            erase(i);
            ++stats_.expirations;
            bump(expirations_);
        } else {
            ++stats_.hits;
            bump(hits_);
            touch(i);
            return true;
        }
    }
    ++stats_.misses;
    bump(misses_);
    insert(key, now);
    return false;
}

void
CacheModel::write(std::uint64_t key, Tick now)
{
    ++stats_.writes;
    bump(writes_);
    const std::uint32_t i = find(key);
    if (config_.write == WritePolicy::Through) {
        if (i != kNil) {
            slots_[i].written = now;
            touch(i);
        } else {
            insert(key, now);
        }
        return;
    }
    if (i != kNil) {
        erase(i);
        ++stats_.invalidations;
        bump(invalidations_);
    }
}

void
CacheModel::clearCold()
{
    slots_.clear();
    freeSlot_ = kNil;
    live_ = 0;
    segments_[0] = segments_[1] = List{};
    buckets_.clear();
    freeBucket_ = coldest_ = kNil;
    std::fill(index_.begin(), index_.end(), kNil);
    ++stats_.coldRestarts;
    bump(coldRestarts_);
}

std::uint64_t
CacheModel::dropWrittenAfter(Tick cutoff)
{
    // Slab order: erasing frees a slot but moves none, and the lists
    // end in the same order whatever order their victims leave in.
    std::uint64_t dropped = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].list == kNil || slots_[i].written <= cutoff)
            continue;
        erase(i);
        ++dropped;
    }
    stats_.replayDrops += dropped;
    if (replayDrops_)
        replayDrops_->inc(dropped);
    return dropped;
}

std::uint32_t
CacheModel::find(std::uint64_t key) const
{
    return index_.empty() ? kNil : index_[probe(key)];
}

void
CacheModel::erase(std::uint32_t i)
{
    Slot &s = slots_[i];
    unindex(probe(s.key));
    unlink(listOf(s), i);
    if (config_.policy == CachePolicy::Lfu &&
        buckets_[s.list].keys.size == 0)
        dropBucket(s.list);
    s.list = kNil;
    s.next = freeSlot_;
    freeSlot_ = i;
    --live_;
}

void
CacheModel::insert(std::uint64_t key, Tick now)
{
    while (live_ >= config_.capacity)
        evictOne();
    if (2 * (live_ + 1) > index_.size())
        growIndex();

    std::uint32_t i = freeSlot_;
    if (i != kNil) {
        freeSlot_ = slots_[i].next;
    } else {
        if (slots_.size() == kNil - 1)
            fatal("CacheModel: more than 2^32 - 2 resident keys");
        reserveOneMore(slots_, config_.capacity);
        i = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[i];
    s.key = key;
    s.written = now;
    index_[probe(key)] = i;
    ++live_;

    if (config_.policy == CachePolicy::Lfu) {
        if (coldest_ == kNil || buckets_[coldest_].freq != 1)
            newBucket(1, kNil);
        s.list = coldest_;
        pushBack(buckets_[coldest_].keys, i);
    } else {
        // LRU and SLRU both install at the probation/recency head.
        s.list = 0;
        pushFront(segments_[0], i);
    }
    ++stats_.inserts;
    bump(inserts_);
}

void
CacheModel::evictOne()
{
    std::uint32_t victim = kNil;
    switch (config_.policy) {
      case CachePolicy::Lru:
        victim = segments_[0].tail;
        break;
      case CachePolicy::SegmentedLru:
        // Probation evicts first; the protected segment is only
        // raided when probation is empty.
        victim = segments_[0].size ? segments_[0].tail
                                   : segments_[1].tail;
        break;
      case CachePolicy::Lfu:
        // Coldest frequency bucket, FIFO within it.
        victim = buckets_[coldest_].keys.head;
        break;
    }
    erase(victim);
    ++stats_.evictions;
    bump(evictions_);
}

void
CacheModel::touch(std::uint32_t i)
{
    Slot &s = slots_[i];
    switch (config_.policy) {
      case CachePolicy::Lru:
        unlink(segments_[0], i);
        pushFront(segments_[0], i);
        return;
      case CachePolicy::Lfu: {
        const std::uint32_t b = s.list;
        const std::uint64_t freq = buckets_[b].freq + 1;
        std::uint32_t next = buckets_[b].next;
        if (next == kNil || buckets_[next].freq != freq) {
            if (buckets_[b].keys.size == 1) {
                // The key's own bucket becomes f + 1 in place.
                buckets_[b].freq = freq;
                return;
            }
            next = newBucket(freq, b);
        }
        unlink(buckets_[b].keys, i);
        if (buckets_[b].keys.size == 0)
            dropBucket(b);
        s.list = next;
        pushBack(buckets_[next].keys, i);
        return;
      }
      case CachePolicy::SegmentedLru:
        if (s.list == 1) {
            unlink(segments_[1], i);
            pushFront(segments_[1], i);
            return;
        }
        // Promotion on a probation hit; the protected segment demotes
        // its own LRU tail back to probation when over budget.
        unlink(segments_[0], i);
        s.list = 1;
        pushFront(segments_[1], i);
        if (segments_[1].size > protectedCapacity_ &&
            segments_[1].size > 1) {
            const std::uint32_t demoted = segments_[1].tail;
            unlink(segments_[1], demoted);
            slots_[demoted].list = 0;
            pushFront(segments_[0], demoted);
        }
        return;
    }
}

CacheModel::List &
CacheModel::listOf(const Slot &s)
{
    return config_.policy == CachePolicy::Lfu ? buckets_[s.list].keys
                                              : segments_[s.list];
}

void
CacheModel::pushFront(List &l, std::uint32_t i)
{
    Slot &s = slots_[i];
    s.prev = kNil;
    s.next = l.head;
    if (l.head != kNil)
        slots_[l.head].prev = i;
    else
        l.tail = i;
    l.head = i;
    ++l.size;
}

void
CacheModel::pushBack(List &l, std::uint32_t i)
{
    Slot &s = slots_[i];
    s.prev = l.tail;
    s.next = kNil;
    if (l.tail != kNil)
        slots_[l.tail].next = i;
    else
        l.head = i;
    l.tail = i;
    ++l.size;
}

void
CacheModel::unlink(List &l, std::uint32_t i)
{
    const Slot &s = slots_[i];
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        l.head = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        l.tail = s.prev;
    --l.size;
}

std::uint32_t
CacheModel::newBucket(std::uint64_t freq, std::uint32_t prev)
{
    std::uint32_t b = freeBucket_;
    if (b != kNil) {
        freeBucket_ = buckets_[b].next;
    } else {
        reserveOneMore(buckets_, config_.capacity);
        b = static_cast<std::uint32_t>(buckets_.size());
        buckets_.emplace_back();
    }
    Bucket &k = buckets_[b];
    k.freq = freq;
    k.keys = List{};
    k.prev = prev;
    k.next = prev == kNil ? coldest_ : buckets_[prev].next;
    if (k.next != kNil)
        buckets_[k.next].prev = b;
    if (prev == kNil)
        coldest_ = b;
    else
        buckets_[prev].next = b;
    return b;
}

void
CacheModel::dropBucket(std::uint32_t b)
{
    Bucket &k = buckets_[b];
    if (k.prev != kNil)
        buckets_[k.prev].next = k.next;
    else
        coldest_ = k.next;
    if (k.next != kNil)
        buckets_[k.next].prev = k.prev;
    k.next = freeBucket_;
    freeBucket_ = b;
}

std::size_t
CacheModel::home(std::uint64_t key) const
{
    // Fibonacci hashing: the top bits of the product depend on every
    // bit of the key, so dense key ids spread over the whole table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    indexShift_);
}

std::size_t
CacheModel::probe(std::uint64_t key) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t c = home(key);
    while (index_[c] != kNil && slots_[index_[c]].key != key)
        c = (c + 1) & mask;
    return c;
}

void
CacheModel::unindex(std::size_t hole)
{
    const std::size_t mask = index_.size() - 1;
    for (std::size_t c = (hole + 1) & mask; index_[c] != kNil;
         c = (c + 1) & mask) {
        // The cell may move back into the hole if the hole lies on its
        // probe path, from its home cell up to c.
        const std::size_t want = home(slots_[index_[c]].key);
        if (((c - want) & mask) >= ((c - hole) & mask)) {
            index_[hole] = index_[c];
            hole = c;
        }
    }
    index_[hole] = kNil;
}

void
CacheModel::growIndex()
{
    const std::size_t cells = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(cells, kNil);
    indexShift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cells));
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].list != kNil)
            index_[probe(slots_[i].key)] = i;
}

} // namespace uqsim::data
