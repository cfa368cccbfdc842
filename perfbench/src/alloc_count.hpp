// Heap-allocation counter fed by this binary's replacement operator new
// (alloc_count.cpp). The count is per thread, so the traced replay, which
// runs on one thread, can attribute allocations to the span that made them
// without the untraced multi-threaded runs contending on a shared counter.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;

}  // namespace perfbench
