#include "core/parallel.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim {

namespace {

/** a + b clamped to kMaxTick (lookahead may be "infinite"). */
Tick
satAdd(Tick a, Tick b)
{
    return a > kMaxTick - b ? kMaxTick : a + b;
}

/** Finalization mix (splitmix64) for composing shard digests. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ParallelSimulator::ParallelSimulator(Config config)
    : lookahead_(config.lookahead)
{
    if (config.shards == 0)
        panic("ParallelSimulator with zero shards");
    if (config.lookahead == 0)
        panic("ParallelSimulator with zero lookahead (cross-shard "
              "events would never be safe to buffer)");
    shards_.reserve(config.shards);
    for (unsigned i = 0; i < config.shards; ++i) {
        shards_.push_back(std::make_unique<Shard>());
        // One shard has no cross-shard channel, hence no outbox.
        if (config.shards > 1)
            shards_.back()->outbox.resize(config.shards);
    }
    nthreads_ = std::max(1u, std::min(config.threads, config.shards));
    if (nthreads_ > 1) {
        workers_.reserve(nthreads_);
        for (unsigned i = 0; i < nthreads_; ++i)
            workers_.emplace_back([this, i]() { workerLoop(i); });
    }
}

ParallelSimulator::~ParallelSimulator()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_ = true;
        }
        cvStart_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }
}

SimContext
ParallelSimulator::context(unsigned shard)
{
    if (shard >= shards_.size())
        panic(strCat("context(", shard, ") out of range; ",
                     shards_.size(), " shards"));
    Shard &s = *shards_[shard];
    return SimContext(s.queue, s.now, shard, *this);
}

Tick
ParallelSimulator::now(unsigned shard) const
{
    if (shard >= shards_.size())
        panic(strCat("now(", shard, ") out of range"));
    return shards_[shard]->now;
}

void
ParallelSimulator::scheduleMail(Shard &s, Tick when, MailCallback &&cb)
{
    MailSlot *slot = s.slots.acquire();
    slot->cb = std::move(cb);
    auto run = [slot]() {
        slot->cb.consume();
        slot->pool->recycle(slot);
    };
    static_assert(EventCallback::fitsInline<decltype(run)>());
    s.queue.schedule(when, std::move(run));
}

void
ParallelSimulator::postToShard(unsigned src, unsigned dst, Tick when,
                               MailCallback cb)
{
    if (dst >= shards_.size())
        panic(strCat("postToShard(", dst, ") out of range; ",
                     shards_.size(), " shards"));
    Shard &from = *shards_[src];
    if (dst == src) {
        // Same-shard fast path: an ordinary local event.
        scheduleMail(from, when, std::move(cb));
        return;
    }
    // The conservative contract: anything crossing a shard boundary
    // must land at least `lookahead` after the sender's clock,
    // otherwise the window [minNext, minNext+lookahead) already being
    // executed elsewhere could contain the delivery time.
    if (when < satAdd(from.now, lookahead_))
        panic(strCat("cross-shard event from shard ", src, " (now=",
                     from.now, ") to shard ", dst, " at when=", when,
                     " violates lookahead ", lookahead_));
    from.outbox[dst].push_back(Mail{when, std::move(cb)});
}

void
ParallelSimulator::deliverMail()
{
    const auto n = static_cast<unsigned>(shards_.size());
    if (n == 1)
        return;
    for (unsigned dst = 0; dst < n; ++dst) {
        mailKeys_.clear();
        for (unsigned src = 0; src < n; ++src) {
            const std::vector<Mail> &box = shards_[src]->outbox[dst];
            for (std::size_t i = 0; i < box.size(); ++i)
                mailKeys_.push_back(MailKey{
                    box[i].when, src, static_cast<std::uint32_t>(i)});
        }
        if (mailKeys_.empty())
            continue;
        // An outbox is in its sender's posting order, so (when, src,
        // index) is the (when, src, seq) total order: the merge does
        // not depend on which worker thread ran which sender.
        std::sort(mailKeys_.begin(), mailKeys_.end(),
                  [](const MailKey &a, const MailKey &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.index < b.index;
                  });
        Shard &s = *shards_[dst];
        for (const MailKey &k : mailKeys_) {
            if (k.when < s.now)
                panic(strCat("mail delivery at when=", k.when,
                             " behind shard ", dst, " clock now=",
                             s.now, " (lookahead too small?)"));
            scheduleMail(s, k.when,
                         std::move(shards_[k.src]->outbox[dst][k.index].cb));
        }
        for (unsigned src = 0; src < n; ++src)
            shards_[src]->outbox[dst].clear();
    }
}

Tick
ParallelSimulator::minNextTick() const
{
    Tick min_next = kMaxTick;
    for (const auto &s : shards_)
        if (!s->queue.empty())
            min_next = std::min(min_next, s->queue.nextTick());
    return min_next;
}

void
ParallelSimulator::addClockObserver(unsigned shard, Tick interval,
                                    ClockObserverFn fn)
{
    if (shard >= shards_.size())
        panic(strCat("addClockObserver(", shard, ") out of range; ",
                     shards_.size(), " shards"));
    if (interval == 0)
        panic("addClockObserver with zero interval");
    Shard &s = *shards_[shard];
    // The first boundary is one interval in; boundaries already behind
    // the clock would sample a world the observer never saw evolve.
    Tick first = interval;
    while (first <= s.now)
        first += interval;
    s.observers.push_back(ClockObserver{interval, first, std::move(fn)});
    s.nextBoundary = std::min(s.nextBoundary, first);
}

void
ParallelSimulator::Shard::fireObservers(Tick limit)
{
    nextBoundary = kMaxTick;
    for (ClockObserver &o : observers) {
        while (o.next <= limit) {
            o.fn(o.next);
            if (o.next > kMaxTick - o.interval) {
                o.next = kMaxTick; // saturate instead of wrapping
                break;
            }
            o.next += o.interval;
        }
        nextBoundary = std::min(nextBoundary, o.next);
    }
}

void
ParallelSimulator::runShard(Shard &s, Tick horizon)
{
    EventQueue &q = s.queue;
    if (s.observers.empty()) {
        // Observer-free fast path: no per-event boundary check.
        while (!q.empty() && q.nextTick() < horizon)
            q.runNext(s.now);
        return;
    }
    while (!q.empty() && q.nextTick() < horizon) {
        // Boundaries <= the next local event time are due. Nothing
        // below the horizon can still arrive by mail (the lookahead
        // contract), so all events < boundary have already executed —
        // the lazily-fired sample equals an eagerly-fired one. The
        // cached earliest boundary keeps the idle cost at one compare.
        if (q.nextTick() >= s.nextBoundary)
            s.fireObservers(q.nextTick());
        q.runNext(s.now);
    }
}

void
ParallelSimulator::runRound(Tick horizon)
{
    if (nthreads_ <= 1) {
        for (auto &s : shards_)
            runShard(*s, horizon);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        roundHorizon_ = horizon;
        pendingWorkers_ = nthreads_;
        ++generation_;
    }
    cvStart_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cvDone_.wait(lock, [this]() { return pendingWorkers_ == 0; });
}

void
ParallelSimulator::workerLoop(unsigned index)
{
    std::uint64_t seen = 0;
    while (true) {
        Tick horizon;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvStart_.wait(lock, [this, seen]() {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            horizon = roundHorizon_;
        }
        // Static shard-to-worker assignment: shard s runs on worker
        // s % nthreads_, every round, so per-shard execution is
        // sequential across rounds as well as within one.
        for (unsigned s = index; s < shards_.size(); s += nthreads_)
            runShard(*shards_[s], horizon);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--pendingWorkers_ == 0)
                cvDone_.notify_all();
        }
    }
}

void
ParallelSimulator::runUntil(Tick deadline)
{
    for (const auto &s : shards_)
        if (deadline < s->now)
            panic(strCat("runUntil(", deadline, ") in the past; shard "
                         "clock now=", s->now));
    // Events fire while strictly below the horizon, so the inclusive
    // deadline needs horizon = deadline + 1; satAdd keeps both that and
    // an "infinite" lookahead from wrapping (kMaxTick never fires).
    const Tick end = satAdd(deadline, 1);
    while (true) {
        deliverMail();
        const Tick min_next = minNextTick();
        if (min_next >= end)
            break;
        runRound(std::min(end, satAdd(min_next, lookahead_)));
    }
    for (auto &s : shards_) {
        s->now = deadline;
        // The window is fully executed on every shard: flush each
        // shard's boundaries it covers (driver thread, deterministic).
        if (deadline >= s->nextBoundary)
            s->fireObservers(deadline);
    }
}

void
ParallelSimulator::run()
{
    while (true) {
        deliverMail();
        const Tick min_next = minNextTick();
        if (min_next == kMaxTick)
            break;
        runRound(satAdd(min_next, lookahead_));
    }
    // Drained: a cancelled timeout still holds its closure, and the
    // call that closure keeps alive, until a scan passes its tick.
    for (auto &s : shards_)
        s->queue.retireCancelled();
}

void
ParallelSimulator::runFor(Tick duration)
{
    Tick start = 0;
    for (const auto &s : shards_)
        start = std::max(start, s->now);
    runUntil(satAdd(start, duration));
}

std::uint64_t
ParallelSimulator::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &s : shards_)
        total += s->queue.executedCount();
    return total;
}

std::uint64_t
ParallelSimulator::shardDigest(unsigned shard) const
{
    if (shard >= shards_.size())
        panic(strCat("shardDigest(", shard, ") out of range"));
    return shards_[shard]->queue.executionDigest();
}

std::uint64_t
ParallelSimulator::executionDigest() const
{
    // One shard is its queue's digest verbatim, which keeps the legacy
    // single-queue digests (and their pins) valid.
    if (shards_.size() == 1)
        return shards_[0]->queue.executionDigest();
    // Commutative composition (wrapping sum of a per-shard mix): the
    // result does not depend on any cross-shard ordering, only on each
    // shard's own order-sensitive digest. The shard id is folded in so
    // two identical shards do not cancel.
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < shards_.size(); ++i)
        acc += mix64(shards_[i]->queue.executionDigest() ^
                     (0x9e3779b97f4a7c15ull * (i + 1)));
    return acc;
}

// -- SimContext methods needing the engine definition -------------------

void
SimContext::postToShard(unsigned dst, Tick delay, MailCallback cb)
{
    engine_->postToShard(shard_, dst, satAdd(now(), delay), std::move(cb));
}

void
SimContext::addClockObserver(Tick interval, ClockObserverFn fn)
{
    engine_->addClockObserver(shard_, interval, std::move(fn));
}

unsigned
SimContext::shardCount() const
{
    return engine_->shardCount();
}

Tick
SimContext::lookahead() const
{
    return engine_->lookahead();
}

void
SimContext::run()
{
    engine_->run();
}

void
SimContext::runUntil(Tick deadline)
{
    engine_->runUntil(deadline);
}

void
SimContext::runFor(Tick duration)
{
    engine_->runFor(duration);
}

void
SimContext::pastScheduleError(Tick when) const
{
    const Tick now_tick = *now_;
    panic(strCat("scheduleAt(when=", when, ") is ", now_tick - when,
                 " ticks in the past (now=", now_tick, ", shard ",
                 shard_, ")"));
}

} // namespace uqsim
