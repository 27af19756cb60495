/**
 * @file
 * A counting replacement of the global operator new.
 *
 * Executables that measure heap allocations (alloc_budget_tests and
 * bench_engine_micro) include this header in exactly one translation
 * unit, which then defines the replacement operators for the whole
 * program. uqsim::countedAllocations() is the number of operator new
 * calls so far. The count is plain, not atomic: both programs allocate
 * on one thread.
 */

#ifndef UQSIM_TESTS_COUNTING_NEW_HH
#define UQSIM_TESTS_COUNTING_NEW_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace uqsim {

namespace detail {
inline std::uint64_t allocationCount = 0;

inline void *
countedAlloc(std::size_t size)
{
    ++allocationCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

inline void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++allocationCount;
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants the size to be a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}
} // namespace detail

/** operator new calls so far. */
inline std::uint64_t
countedAllocations()
{
    return detail::allocationCount;
}

} // namespace uqsim

void *
operator new(std::size_t size)
{
    return uqsim::detail::countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return uqsim::detail::countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++uqsim::detail::allocationCount;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++uqsim::detail::allocationCount;
    return std::malloc(size ? size : 1);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return uqsim::detail::countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return uqsim::detail::countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // UQSIM_TESTS_COUNTING_NEW_HH
