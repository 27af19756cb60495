/**
 * @file
 * Pooled frames with plain reference counts.
 *
 * The App runs every request on a RequestFrame, every RPC attempt on a
 * CallFrame and every handler invocation on a HandlerFrame (app.cc)
 * instead of on make_shared state and nested closures; the engine
 * keeps delivered mail in MailSlots (parallel.hh). Frames come from a
 * FramePool that grows in fixed chunks during the run and recycles
 * frames through a free list, so the steady state allocates nothing.
 *
 * A frame is kept alive by FrameRef handles held by the continuations
 * that still need it. The count is plain, not atomic: an App, its
 * frames and every continuation touching them belong to one shard and
 * run on that shard's thread. Cross-shard legs carry plain values
 * (frame index and generation) and never a FrameRef.
 *
 * Queued events may outlive their App (a world is torn down with
 * events pending; the queue dies last). The App then orphans its pools:
 * frames released afterwards are still recycled, and an orphaned pool
 * deletes itself when its last frame comes back.
 */

#ifndef UQSIM_CORE_FRAME_POOL_HH
#define UQSIM_CORE_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace uqsim {

template <typename T>
class FramePool;

/** Bookkeeping every pooled frame type derives (CRTP). */
template <typename T>
struct PooledFrame
{
    FramePool<T> *pool = nullptr;
    T *nextFree = nullptr;
    /** Live FrameRefs; the frame is recycled when this reaches 0. */
    std::uint32_t refs = 0;
    /** Slot index within the pool (stable for the pool's lifetime). */
    std::uint32_t index = 0;
    /**
     * Changes whenever the frame finishes a use: on every recycle and
     * whenever the frame type says so (a CallFrame bumps it when its
     * attempt settles). A continuation that captured an older value
     * belongs to a finished use and must stop.
     */
    std::uint32_t gen = 0;
};

/**
 * Chunked free-list pool of frames of type T.
 */
template <typename T>
class FramePool
{
  public:
    /** Frames added per growth step. */
    static constexpr std::size_t kChunkFrames = 256;

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    /** A fresh, default-state frame with no references yet. */
    T *
    acquire()
    {
        if (!free_)
            grow();
        T *f = free_;
        free_ = f->nextFree;
        f->nextFree = nullptr;
        ++inUse_;
        return f;
    }

    /**
     * Return a frame whose last reference went away: its members are
     * destroyed (which may release further frames) and it is reset to
     * the default state under a new generation.
     */
    void
    recycle(T *f)
    {
        const std::uint32_t index = f->index;
        const std::uint32_t gen = f->gen;
        f->~T();
        T *fresh = ::new (static_cast<void *>(f)) T();
        fresh->pool = this;
        fresh->index = index;
        fresh->gen = gen + 1;
        fresh->nextFree = free_;
        free_ = fresh;
        if (--inUse_ == 0 && orphaned_)
            delete this;
    }

    /**
     * The owner is going away: delete now if nothing is in use, else
     * once the last frame is recycled.
     */
    void
    orphan()
    {
        if (inUse_ == 0)
            delete this;
        else
            orphaned_ = true;
    }

    /** @return true once the owner is gone. */
    bool orphaned() const { return orphaned_; }

    /** Frames currently handed out. */
    std::size_t inUse() const { return inUse_; }

    /** Frames ever created (in use or free). */
    std::size_t capacity() const { return chunks_.size() * kChunkFrames; }

    /** The frame in slot @p index (must be < capacity()). */
    T &
    at(std::uint32_t index)
    {
        return chunks_[index / kChunkFrames][index % kChunkFrames];
    }

  private:
    void
    grow()
    {
        const auto base =
            static_cast<std::uint32_t>(chunks_.size() * kChunkFrames);
        chunks_.push_back(std::make_unique<T[]>(kChunkFrames));
        T *chunk = chunks_.back().get();
        for (std::size_t i = kChunkFrames; i-- > 0;) {
            chunk[i].pool = this;
            chunk[i].index = base + static_cast<std::uint32_t>(i);
            chunk[i].nextFree = free_;
            free_ = &chunk[i];
        }
    }

    std::vector<std::unique_ptr<T[]>> chunks_;
    T *free_ = nullptr;
    std::size_t inUse_ = 0;
    bool orphaned_ = false;
};

/**
 * Owning reference to a pooled frame. retainFrame/releaseFrame are
 * found by argument-dependent lookup next to each frame type.
 */
template <typename T>
class FrameRef
{
  public:
    FrameRef() = default;

    explicit FrameRef(T *frame) : f_(frame)
    {
        if (f_)
            retainFrame(f_);
    }

    FrameRef(const FrameRef &other) : f_(other.f_)
    {
        if (f_)
            retainFrame(f_);
    }

    FrameRef(FrameRef &&other) noexcept : f_(std::exchange(other.f_, nullptr))
    {}

    FrameRef &
    operator=(FrameRef other) noexcept
    {
        std::swap(f_, other.f_);
        return *this;
    }

    ~FrameRef()
    {
        if (f_)
            releaseFrame(f_);
    }

    /** Take over one reference the caller already counted. */
    static FrameRef
    adopt(T *frame)
    {
        FrameRef r;
        r.f_ = frame;
        return r;
    }

    T *get() const { return f_; }
    T &operator*() const { return *f_; }
    T *operator->() const { return f_; }
    explicit operator bool() const { return f_ != nullptr; }

  private:
    T *f_ = nullptr;
};

} // namespace uqsim

#endif // UQSIM_CORE_FRAME_POOL_HH
