/**
 * @file
 * Global operator new/delete replacement with per-thread counters
 * (see heap_hook.hh). Byte counts use malloc_usable_size on both sides
 * so an allocation and its release always cancel exactly; they are
 * taken only while countBytes(true) is in force.
 */

#include "heap_hook.hh"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace uqbench::heap {
namespace {

/** One thread's counters, alone on its cache line. */
struct alignas(64) Slot
{
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> bytesIn{0};
    std::atomic<std::uint64_t> bytesOut{0};
};

constexpr unsigned kSlots = 1024;

// Constant-initialized (zeroed) storage: usable before any static
// constructor runs, since the C++ runtime allocates during start-up.
Slot gSlots[kSlots];
/** Shared by threads beyond kSlots; updated with atomic adds. */
Slot gOverflow;
std::atomic<unsigned> gClaimed{0};
std::atomic<bool> gCountBytes{false};
thread_local Slot *tSlot = nullptr;

Slot &
mySlot()
{
    Slot *s = tSlot;
    if (s == nullptr) {
        const unsigned i = gClaimed.fetch_add(1, std::memory_order_relaxed);
        s = i < kSlots ? &gSlots[i] : &gOverflow;
        tSlot = s;
    }
    return *s;
}

/** Add @p v; a plain load/store when only this thread writes @p c. */
inline void
bump(Slot &s, std::atomic<std::uint64_t> &c, std::uint64_t v)
{
    if (&s == &gOverflow)
        c.fetch_add(v, std::memory_order_relaxed);
    else
        c.store(c.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
}

void
noteAlloc(void *p)
{
    Slot &s = mySlot();
    bump(s, s.allocs, 1);
    if (gCountBytes.load(std::memory_order_relaxed))
        bump(s, s.bytesIn, malloc_usable_size(p));
}

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (n == 0)
        n = 1;
    while (true) {
        void *p = nullptr;
        if (align <= alignof(std::max_align_t))
            p = std::malloc(n);
        else if (posix_memalign(&p, align, n) != 0)
            p = nullptr;
        if (p != nullptr) {
            noteAlloc(p);
            return p;
        }
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

void *
countedAllocNoThrow(std::size_t n, std::size_t align) noexcept
{
    try {
        return countedAlloc(n, align);
    } catch (...) {
        return nullptr;
    }
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    Slot &s = mySlot();
    bump(s, s.frees, 1);
    if (gCountBytes.load(std::memory_order_relaxed))
        bump(s, s.bytesOut, malloc_usable_size(p));
    std::free(p);
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

} // namespace

void
countBytes(bool on)
{
    gCountBytes.store(on, std::memory_order_relaxed);
}

Totals
totals()
{
    Totals t;
    auto add = [&t](const Slot &s) {
        t.allocs += s.allocs.load(std::memory_order_relaxed);
        t.frees += s.frees.load(std::memory_order_relaxed);
        t.bytesAllocated += s.bytesIn.load(std::memory_order_relaxed);
        t.bytesFreed += s.bytesOut.load(std::memory_order_relaxed);
    };
    const unsigned used = gClaimed.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < used && i < kSlots; ++i)
        add(gSlots[i]);
    add(gOverflow);
    return t;
}

} // namespace uqbench::heap

using uqbench::heap::countedAlloc;
using uqbench::heap::countedAllocNoThrow;
using uqbench::heap::countedFree;
using uqbench::heap::kPlain;

void *operator new(std::size_t n) { return countedAlloc(n, kPlain); }
void *operator new[](std::size_t n) { return countedAlloc(n, kPlain); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, kPlain);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, kPlain);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void operator delete(void *p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::align_val_t) noexcept { countedFree(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    countedFree(p);
}
