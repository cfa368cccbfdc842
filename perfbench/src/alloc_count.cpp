#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

// Replacement global allocation functions: every form funnels into the two
// counting ones below. noinline keeps GCC from pairing an inlined std::free
// with the standard operator new and warning about the mismatch.
#if defined(__GNUC__) || defined(__clang__)
#define PERFBENCH_NOINLINE __attribute__((noinline))
#else
#define PERFBENCH_NOINLINE
#endif

namespace {
constinit thread_local std::uint64_t t_allocs = 0;
}  // namespace

namespace perfbench {
std::uint64_t thread_allocs() noexcept { return t_allocs; }
}  // namespace perfbench

PERFBENCH_NOINLINE void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

PERFBENCH_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

PERFBENCH_NOINLINE void* operator new(std::size_t size,
                                      std::align_val_t align) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}

PERFBENCH_NOINLINE void* operator new[](std::size_t size,
                                        std::align_val_t align) {
  return ::operator new(size, align);
}

PERFBENCH_NOINLINE void* operator new(std::size_t size,
                                      const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

PERFBENCH_NOINLINE void* operator new[](std::size_t size,
                                        const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

PERFBENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete(void* p, std::size_t,
                                        std::align_val_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p, std::size_t,
                                          std::align_val_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete(void* p,
                                        const std::nothrow_t&) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p,
                                          const std::nothrow_t&) noexcept {
  std::free(p);
}
