#include "common/alloc_hook.hh"

#include <cstdlib>
#include <new>

namespace isol::common
{

namespace
{
// Thread-local so parallel sweep workers never contend or race; pure
// diagnostics counters, never read by simulation code.
thread_local AllocCounters t_counters;
} // namespace

bool
allocCountingEnabled()
{
    return true;
}

AllocCounters
allocCounters()
{
    return t_counters;
}

void
resetAllocCounters()
{
    t_counters = AllocCounters{};
}

} // namespace isol::common

namespace
{

void *
countedAlloc(std::size_t size)
{
    ++isol::common::t_counters.allocs;
    isol::common::t_counters.bytes += size;
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++isol::common::t_counters.allocs;
    isol::common::t_counters.bytes += size;
    // aligned_alloc requires size to be a multiple of the alignment.
    std::size_t padded = (size + align - 1) / align * align;
    void *p = std::aligned_alloc(align, padded == 0 ? align : padded);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    ++isol::common::t_counters.frees;
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

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
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
