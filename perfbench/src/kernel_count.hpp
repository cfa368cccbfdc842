// Per-thread call counts of the library kernels that run inside share() and
// aggregate(). The link step wraps each kernel's symbol (`--wrap`, see
// ../CMakeLists.txt), so every call the library makes to it from another
// translation unit passes through a counter first. The traced replay reads
// the counts around each share/aggregate call, so the number of transforms,
// selections, encodes, decodes and averages a call made is measured, not
// assumed. The counts are per thread like the allocation counter's.
#pragma once

#include <cstdint>

namespace perfbench {

enum class Kernel : std::uint8_t {
  kForward,  ///< dwt::DwtPlan::forward_into (workspace overload)
  kInverse,  ///< dwt::DwtPlan::inverse_into (workspace overload)
  kTopk,     ///< compress::topk_indices_into
  kEncode,   ///< core::make_message (pooled overload)
  kDecode,   ///< core::decode_payload_into
  kAverage,  ///< core::partial_average (arena overloads)
  kCount
};

struct KernelCounts {
  std::uint64_t calls[static_cast<int>(Kernel::kCount)] = {};

  std::uint64_t operator[](Kernel k) const noexcept {
    return calls[static_cast<int>(k)];
  }
};

/// Kernel calls made so far by the calling thread.
KernelCounts thread_kernel_counts() noexcept;

/// Calls made between two readings, per kernel.
KernelCounts operator-(const KernelCounts& after, const KernelCounts& before);

}  // namespace perfbench
