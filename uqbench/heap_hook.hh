/**
 * @file
 * Process-wide heap accounting for the benchmark driver.
 *
 * heap_hook.cc replaces the global operator new/delete family with
 * malloc/free wrappers that count calls and usable bytes in per-thread
 * slots: each thread owns one cache-line-sized slot that only it
 * writes, so partitioned runs with several worker threads never contend
 * on a shared counter. Slots outlive their threads, so totals() still
 * covers the work of joined engine workers.
 */

#ifndef UQBENCH_HEAP_HOOK_HH
#define UQBENCH_HEAP_HOOK_HH

#include <cstdint>

namespace uqbench::heap {

/** Sums over every thread that ever allocated. */
struct Totals
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytesAllocated = 0;
    std::uint64_t bytesFreed = 0;

    std::int64_t
    liveAllocs() const
    {
        return static_cast<std::int64_t>(allocs - frees);
    }

    std::int64_t
    liveBytes() const
    {
        return static_cast<std::int64_t>(bytesAllocated - bytesFreed);
    }
};

/**
 * Also count usable bytes (two malloc_usable_size calls per allocation
 * and release). Call once, before the threads whose bytes should count
 * start. Byte totals are then exact for what is allocated after the
 * call; releasing an earlier allocation lowers the live count a little.
 */
void countBytes(bool on);

/**
 * Read every slot. Exact when no other thread is allocating (between
 * engine rounds or after the drive); a close snapshot otherwise.
 */
Totals totals();

} // namespace uqbench::heap

#endif // UQBENCH_HEAP_HOOK_HH
