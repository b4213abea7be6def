/**
 * @file
 * Per-thread heap-allocation counting: the "this region allocated
 * nothing" assertion of the serving runtime. The global operator
 * new/delete replacements in heap_count.cc forward to malloc/free and
 * count every operator-new call and its requested bytes on the
 * calling thread. ScopedHeapAllocCount reads those counters, so tests
 * — and the server's Debug steady-state self-check — can assert that
 * a steady-state PlanExecutor run or served batch performs zero heap
 * allocations on the calling thread.
 *
 * The replacements share heap_count.cc with the counters, so a binary
 * links them exactly when it reads a counter; every other binary
 * keeps the standard operator new.
 */

#ifndef MIXQ_SERVE_HEAP_COUNT_HH
#define MIXQ_SERVE_HEAP_COUNT_HH

#include <cstdint>

namespace mixq {

/** Monotonic count of operator-new calls on this thread. */
uint64_t heapAllocCount();
/** Total bytes those allocations requested. */
uint64_t heapAllocBytes();

/**
 * Reads the thread's allocation counters on construction; count()
 * and bytes() report heap allocations since then.
 */
class ScopedHeapAllocCount
{
  public:
    ScopedHeapAllocCount()
        : c0_(heapAllocCount()), b0_(heapAllocBytes())
    {
    }

    uint64_t count() const { return heapAllocCount() - c0_; }
    uint64_t bytes() const { return heapAllocBytes() - b0_; }

  private:
    uint64_t c0_, b0_;
};

} // namespace mixq

#endif // MIXQ_SERVE_HEAP_COUNT_HH
