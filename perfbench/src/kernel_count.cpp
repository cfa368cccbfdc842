#include "kernel_count.hpp"

#include <span>
#include <vector>

#include "compress/topk.hpp"
#include "core/averaging.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"

// The wrapped symbols, mangled (Itanium C++ ABI, 64-bit size_t: the
// 18446744073709551615 is std::dynamic_extent). ../CMakeLists.txt passes
// the same names to `--wrap`; a name missing on either side, or a kernel
// whose signature changed, fails the link rather than miscounting.
#define PB_FORWARD                                                       \
  "_ZNK5jwins3dwt7DwtPlan12forward_intoESt4spanIKfLm18446744073709551615E" \
  "ES2_IfLm18446744073709551615EERNS0_12DwtWorkspaceE"
#define PB_INVERSE                                                       \
  "_ZNK5jwins3dwt7DwtPlan12inverse_intoESt4spanIKfLm18446744073709551615E" \
  "ES2_IfLm18446744073709551615EERNS0_12DwtWorkspaceE"
#define PB_TOPK                                                       \
  "_ZN5jwins8compress17topk_indices_intoESt4spanIKfLm18446744073709551615" \
  "EEmRSt6vectorIjSaIjEE"
#define PB_ENCODE                                                    \
  "_ZN5jwins4core12make_messageEjjRKNS0_11PayloadViewERKNS0_14Payload" \
  "OptionsERNS_3net10BufferPoolERNS_8compress9BitWriterE"
#define PB_DECODE                                                       \
  "_ZN5jwins4core19decode_payload_intoESt4spanIKhLm18446744073709551615E" \
  "ERNS0_13SparsePayloadERNS0_5ArenaE"
#define PB_AVERAGE                                                        \
  "_ZN5jwins4core15partial_averageESt4spanIfLm18446744073709551615EEdS1_I" \
  "KNS0_20WeightedContributionELm18446744073709551615EERNS0_5ArenaE"
#define PB_AVERAGE_SCALED                                                 \
  "_ZN5jwins4core15partial_averageESt4spanIfLm18446744073709551615EEdS1_I" \
  "KNS0_20WeightedContributionELm18446744073709551615EES1_IKdLm1844674407" \
  "3709551615EERNS0_5ArenaE"

namespace perfbench {

namespace {
constinit thread_local KernelCounts t_counts;

void count(Kernel k) noexcept { ++t_counts.calls[static_cast<int>(k)]; }
}  // namespace

KernelCounts thread_kernel_counts() noexcept { return t_counts; }

KernelCounts operator-(const KernelCounts& after, const KernelCounts& before) {
  KernelCounts d;
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
    d.calls[k] = after.calls[k] - before.calls[k];
  }
  return d;
}

namespace wrap {

namespace core = jwins::core;
namespace dwt = jwins::dwt;
namespace net = jwins::net;

// A const member function takes `this` as its first argument, so the two
// DwtPlan kernels are declared as free functions of the plan pointer.
void real_forward(const dwt::DwtPlan*, std::span<const float>,
                  std::span<float>, dwt::DwtWorkspace&)
    __asm__("__real_" PB_FORWARD);
void real_inverse(const dwt::DwtPlan*, std::span<const float>,
                  std::span<float>, dwt::DwtWorkspace&)
    __asm__("__real_" PB_INVERSE);
void real_topk(std::span<const float>, std::size_t, std::vector<std::uint32_t>&)
    __asm__("__real_" PB_TOPK);
net::Message real_encode(std::uint32_t, std::uint32_t,
                         const core::PayloadView&, const core::PayloadOptions&,
                         net::BufferPool&, jwins::compress::BitWriter&)
    __asm__("__real_" PB_ENCODE);
void real_decode(std::span<const std::uint8_t>, core::SparsePayload&,
                 core::Arena&) __asm__("__real_" PB_DECODE);
void real_average(std::span<float>, double,
                  std::span<const core::WeightedContribution>, core::Arena&)
    __asm__("__real_" PB_AVERAGE);
void real_average_scaled(std::span<float>, double,
                         std::span<const core::WeightedContribution>,
                         std::span<const double>, core::Arena&)
    __asm__("__real_" PB_AVERAGE_SCALED);

void forward(const dwt::DwtPlan* plan, std::span<const float> input,
             std::span<float> coeffs, dwt::DwtWorkspace& ws)
    __asm__("__wrap_" PB_FORWARD);
void forward(const dwt::DwtPlan* plan, std::span<const float> input,
             std::span<float> coeffs, dwt::DwtWorkspace& ws) {
  count(Kernel::kForward);
  real_forward(plan, input, coeffs, ws);
}

void inverse(const dwt::DwtPlan* plan, std::span<const float> coeffs,
             std::span<float> output, dwt::DwtWorkspace& ws)
    __asm__("__wrap_" PB_INVERSE);
void inverse(const dwt::DwtPlan* plan, std::span<const float> coeffs,
             std::span<float> output, dwt::DwtWorkspace& ws) {
  count(Kernel::kInverse);
  real_inverse(plan, coeffs, output, ws);
}

void topk(std::span<const float> values, std::size_t k,
          std::vector<std::uint32_t>& out) __asm__("__wrap_" PB_TOPK);
void topk(std::span<const float> values, std::size_t k,
          std::vector<std::uint32_t>& out) {
  count(Kernel::kTopk);
  real_topk(values, k, out);
}

net::Message encode(std::uint32_t sender, std::uint32_t round,
                    const core::PayloadView& payload,
                    const core::PayloadOptions& options, net::BufferPool& pool,
                    jwins::compress::BitWriter& bits)
    __asm__("__wrap_" PB_ENCODE);
net::Message encode(std::uint32_t sender, std::uint32_t round,
                    const core::PayloadView& payload,
                    const core::PayloadOptions& options, net::BufferPool& pool,
                    jwins::compress::BitWriter& bits) {
  count(Kernel::kEncode);
  return real_encode(sender, round, payload, options, pool, bits);
}

void decode(std::span<const std::uint8_t> body, core::SparsePayload& out,
            core::Arena& arena) __asm__("__wrap_" PB_DECODE);
void decode(std::span<const std::uint8_t> body, core::SparsePayload& out,
            core::Arena& arena) {
  count(Kernel::kDecode);
  real_decode(body, out, arena);
}

void average(std::span<float> own, double self_weight,
             std::span<const core::WeightedContribution> contributions,
             core::Arena& arena) __asm__("__wrap_" PB_AVERAGE);
void average(std::span<float> own, double self_weight,
             std::span<const core::WeightedContribution> contributions,
             core::Arena& arena) {
  count(Kernel::kAverage);
  real_average(own, self_weight, contributions, arena);
}

void average_scaled(std::span<float> own, double self_weight,
                    std::span<const core::WeightedContribution> contributions,
                    std::span<const double> scales, core::Arena& arena)
    __asm__("__wrap_" PB_AVERAGE_SCALED);
void average_scaled(std::span<float> own, double self_weight,
                    std::span<const core::WeightedContribution> contributions,
                    std::span<const double> scales, core::Arena& arena) {
  count(Kernel::kAverage);
  real_average_scaled(own, self_weight, contributions, scales, arena);
}

}  // namespace wrap
}  // namespace perfbench
