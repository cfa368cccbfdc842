// Runtime selection between the pinned scalar reference kernels and their
// vectorized fast paths (dwt, topk, qsgd, and nn::Conv2d forward/backward).
//
// Both tiers are bit-identical by contract — the fast paths restructure loops
// without changing any floating-point operation order per output element —
// so the tier is a pure performance knob. The default is the fast tier;
// setting the JWINS_FORCE_SCALAR environment variable (to anything but "0"
// or the empty string) pins the scalar reference, and tests/benches can
// override programmatically via force() / ScopedForce.
//
// tests/test_kernel_equivalence.cpp enforces the bit-identity contract for
// every fast/scalar pair; docs/PERFORMANCE.md ("Kernel dispatch &
// vectorization") documents the tiers and the BENCH_<n>.json workflow.
#pragma once

namespace jwins::core {

enum class KernelTier { kScalar = 0, kFast = 1 };

/// Name of a tier as reported in bench JSON: "scalar" or "fast".
const char* kernel_tier_name(KernelTier tier) noexcept;

class KernelDispatch {
 public:
  /// The active tier: a programmatic force() override if set, else the
  /// JWINS_FORCE_SCALAR environment resolution (read once per process),
  /// else the fast tier.
  static KernelTier tier() noexcept;

  /// Convenience predicate for kernel call sites.
  static bool fast() noexcept { return tier() == KernelTier::kFast; }

  static const char* tier_name() noexcept { return kernel_tier_name(tier()); }

  /// True when the JWINS_FORCE_SCALAR environment variable pinned the
  /// scalar tier at startup (independent of any programmatic override).
  static bool env_forced_scalar() noexcept;

  /// The -march tier the library was compiled with ("generic" unless the
  /// build set JWINS_MARCH; see the top-level CMakeLists).
  static const char* compiled_march() noexcept;

  /// Programmatic override (tests, benches). Overrides the environment
  /// until clear_force().
  static void force(KernelTier tier) noexcept;
  static void clear_force() noexcept;

  /// RAII override restoring the previous override state on destruction.
  class ScopedForce {
   public:
    explicit ScopedForce(KernelTier tier) noexcept;
    ~ScopedForce();
    ScopedForce(const ScopedForce&) = delete;
    ScopedForce& operator=(const ScopedForce&) = delete;

   private:
    int previous_;  // raw override slot: -1 none, else KernelTier value
  };
};

}  // namespace jwins::core
