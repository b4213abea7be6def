#include "serve/heap_count.hh"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace mixq {

namespace {

thread_local uint64_t tlsHeapAllocs = 0;
thread_local uint64_t tlsHeapBytes = 0;

void*
allocImpl(size_t n, size_t align) noexcept
{
    if (n == 0)
        n = 1;
    ++tlsHeapAllocs;
    tlsHeapBytes += n;
    if (align > alignof(std::max_align_t)) {
        void* p = nullptr;
        if (posix_memalign(&p, align, n) != 0)
            return nullptr;
        return p;
    }
    return std::malloc(n);
}

void
freeImpl(void* p) noexcept
{
    std::free(p);
}

} // namespace

uint64_t
heapAllocCount()
{
    return tlsHeapAllocs;
}

uint64_t
heapAllocBytes()
{
    return tlsHeapBytes;
}

} // namespace mixq

// ------------------------------------------------------------------
// Global operator new/delete replacements. Every form forwards to
// allocImpl/freeImpl above. They live in the same translation unit as
// the counters, so only binaries that read a counter link them in.
// ------------------------------------------------------------------

void*
operator new(std::size_t n)
{
    void* p = mixq::allocImpl(n, alignof(std::max_align_t));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
operator new[](std::size_t n)
{
    void* p = mixq::allocImpl(n, alignof(std::max_align_t));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return mixq::allocImpl(n, alignof(std::max_align_t));
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return mixq::allocImpl(n, alignof(std::max_align_t));
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    void* p = mixq::allocImpl(n, static_cast<std::size_t>(al));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    void* p = mixq::allocImpl(n, static_cast<std::size_t>(al));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t&) noexcept
{
    return mixq::allocImpl(n, static_cast<std::size_t>(al));
}

void*
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t&) noexcept
{
    return mixq::allocImpl(n, static_cast<std::size_t>(al));
}

void
operator delete(void* p) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete[](void* p) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    mixq::freeImpl(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    mixq::freeImpl(p);
}
