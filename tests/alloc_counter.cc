// Replaces the global allocation functions of the test binary with counting
// ones. Array and nothrow forms forward here by default. The replacements live
// in their own file so that no new-expression is compiled beside them.
#include "tests/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace knit {

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace knit
