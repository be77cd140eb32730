// Counts the global allocations of a test binary that links alloc_counter.cc.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace knit {

// Global operator new calls made so far by this process.
uint64_t AllocationCount();

}  // namespace knit

#endif  // TESTS_ALLOC_COUNTER_H_
