// Bit-identity harness for the vectorized kernel tiers (ISSUE 9 tentpole).
//
// Every fast kernel in core::KernelDispatch's families — DWT analyze /
// synthesize, TopK bucket-select, blocked QSGD rounding and the Conv2d
// forward/backward passes — promises *byte-identical* output to its pinned
// scalar reference. These tests compare the raw output bytes (not
// approximate values) across a size ladder that covers degenerate,
// non-power-of-two, and large inputs, plus adversarial all-equal/all-zero
// vectors and a 200-seed tie-heavy TopK sweep.
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "compress/bitstream.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/kernel_dispatch.hpp"
#include "dwt/dwt.hpp"
#include "dwt/wavelet.hpp"
#include "nn/conv.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace jwins;

// The ladder from ISSUE 9: degenerate (1..3), around the first vector width
// (15..17), non-power-of-two (255, 65537), and the bench sizes.
const std::vector<std::size_t> kSizes = {1,    2,    3,     15,   16,
                                         17,   255,  1024,  16384, 65537};

std::vector<float> random_values(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

// Adversarial variants: all-zero (degenerate norms),
// all-equal (every TopK candidate tied), and alternating-sign equal
// magnitude (ties with sign churn). All NaN-free by construction.
std::vector<std::vector<float>> adversarial_inputs(std::size_t n,
                                                   unsigned seed) {
  std::vector<std::vector<float>> out;
  out.push_back(std::vector<float>(n, 0.0f));
  out.push_back(std::vector<float>(n, 1.5f));
  std::vector<float> alt(n);
  for (std::size_t i = 0; i < n; ++i) alt[i] = (i % 2 == 0) ? 0.25f : -0.25f;
  out.push_back(std::move(alt));
  out.push_back(random_values(n, seed));
  return out;
}

template <class T>
void expect_bytes_equal(const std::vector<T>& a, const std::vector<T>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << what;
  }
}

// --- DWT ---------------------------------------------------------------

TEST(KernelEquivalence, DwtAnalyzeBitIdentical) {
  for (const auto& w : {dwt::haar(), dwt::sym2(), dwt::db4()}) {
    for (std::size_t raw : kSizes) {
      const std::size_t n = std::max<std::size_t>(2, raw & ~std::size_t{1});
      for (const auto& input : adversarial_inputs(n, 11)) {
        std::vector<float> a_s(n / 2), d_s(n / 2), a_f(n / 2), d_f(n / 2);
        dwt::analyze_level_scalar(w, input, a_s, d_s);
        dwt::analyze_level_fast(w, input, a_f, d_f);
        const std::string what = w.name + " n=" + std::to_string(n);
        expect_bytes_equal(a_s, a_f, "approx " + what);
        expect_bytes_equal(d_s, d_f, "detail " + what);
      }
    }
  }
}

TEST(KernelEquivalence, DwtSynthesizeBitIdentical) {
  for (const auto& w : {dwt::haar(), dwt::sym2(), dwt::db4()}) {
    for (std::size_t raw : kSizes) {
      const std::size_t n = std::max<std::size_t>(2, raw & ~std::size_t{1});
      for (const auto& input : adversarial_inputs(n, 13)) {
        // Use analysis coefficients as synthesis input so the data exercises
        // realistic dynamic range (any pair of half-length spans is legal).
        std::vector<float> approx(n / 2), detail(n / 2);
        dwt::analyze_level_scalar(w, input, approx, detail);
        std::vector<float> out_s(n), out_f(n);
        dwt::synthesize_level_scalar(w, approx, detail, out_s);
        dwt::synthesize_level_fast(w, approx, detail, out_f);
        expect_bytes_equal(out_s, out_f,
                           w.name + " n=" + std::to_string(n));
      }
    }
  }
}

// --- TopK --------------------------------------------------------------

TEST(KernelEquivalence, TopkIdenticalIndexSet) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 17)) {
      for (std::size_t k :
           {std::size_t{0}, std::size_t{1}, n / 10, n / 2, n - 1, n, n + 7}) {
        std::vector<std::uint32_t> idx_s, idx_f;
        compress::topk_indices_into_scalar(values, k, idx_s);
        compress::topk_indices_into_fast(values, k, idx_f);
        EXPECT_EQ(idx_s, idx_f) << "n=" << n << " k=" << k;
      }
    }
  }
}

// 200-seed randomized sweep over tie-heavy inputs: values drawn from a small
// discrete magnitude set so the boundary bucket is packed with exact ties.
// The fast path must return *exactly* the reference index set, which pins
// the shared tie rule (magnitude descending, index ascending).
TEST(KernelEquivalence, TopkTieBreak200SeedSweep) {
  const std::size_t n = 8192;  // above the bucket-select threshold
  for (unsigned seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> mag(0, 4);
    std::uniform_int_distribution<int> sign(0, 1);
    std::vector<float> values(n);
    for (float& v : values) {
      v = static_cast<float>(mag(rng)) * 0.5f * (sign(rng) ? 1.0f : -1.0f);
    }
    const std::size_t k = n / 10 + (seed % 64);
    std::vector<std::uint32_t> idx_s, idx_f;
    compress::topk_indices_into_scalar(values, k, idx_s);
    compress::topk_indices_into_fast(values, k, idx_f);
    ASSERT_EQ(idx_s, idx_f) << "seed=" << seed;
  }
}

// --- QSGD --------------------------------------------------------------

TEST(KernelEquivalence, QsgdBitIdentical) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 23)) {
      for (std::uint32_t levels : {1u, 15u, 16u, 255u}) {
        std::mt19937_64 rng_s(99), rng_f(99);
        compress::QuantizedVector q_s, q_f;
        compress::qsgd_quantize_into_scalar(std::span<const float>(values),
                                            levels, rng_s, q_s);
        compress::qsgd_quantize_into_fast(std::span<const float>(values),
                                          levels, rng_f, q_f);
        ASSERT_EQ(q_s.norm, q_f.norm) << "n=" << n << " levels=" << levels;
        ASSERT_EQ(q_s.count, q_f.count);
        expect_bytes_equal(q_s.packed, q_f.packed,
                           "n=" + std::to_string(n) +
                               " levels=" + std::to_string(levels));
        // Both tiers must also have consumed the same number of draws.
        EXPECT_EQ(rng_s(), rng_f()) << "RNG streams diverged";
      }
    }
  }
}

// --- Conv2d ------------------------------------------------------------

struct ConvShape {
  std::size_t in_ch, out_ch, kernel, stride, pad, size, batch;
};

std::string describe(const ConvShape& s) {
  return std::to_string(s.in_ch) + "->" + std::to_string(s.out_ch) + " k" +
         std::to_string(s.kernel) + " s" + std::to_string(s.stride) + " p" +
         std::to_string(s.pad) + " " + std::to_string(s.size) + "x" +
         std::to_string(s.size) + " b" + std::to_string(s.batch);
}

// The GradCheck shapes of test_nn_layers.cpp (stride 2; k5 p2; k1 p0), the
// two conv layers of the fig5 CNN at the training and evaluation batch,
// images smaller than kernel + padding, and a padding as wide as the kernel
// (border outputs see no valid tap and are the bias alone).
const std::vector<ConvShape> kConvShapes = {
    {1, 1, 3, 1, 1, 5, 2},   {2, 3, 3, 1, 1, 6, 3},   {3, 2, 3, 2, 1, 8, 2},
    {1, 4, 5, 1, 2, 7, 3},   {2, 2, 1, 1, 0, 4, 2},   {3, 8, 3, 1, 1, 8, 16},
    {8, 16, 3, 1, 1, 4, 16}, {3, 8, 3, 1, 1, 8, 192}, {8, 16, 3, 1, 1, 4, 192},
    {2, 3, 5, 1, 2, 2, 3},   {2, 3, 5, 1, 2, 1, 1},   {2, 9, 3, 1, 3, 2, 3}};

std::vector<float> bytes_of(const tensor::Tensor& t) {
  return {t.raw(), t.raw() + t.size()};
}

// A random tensor whose first half has every fifth entry +0.0f and every
// seventh -0.0f: zero g's whose terms the reference skips.
tensor::Tensor with_zeros(const tensor::Shape& shape, std::mt19937& rng) {
  tensor::Tensor t = tensor::Tensor::normal(shape, 0.0f, 1.0f, rng);
  for (std::size_t i = 0; i < t.size() / 2; ++i) {
    if (i % 5 == 0) t.raw()[i] = 0.0f;
    if (i % 7 == 0) t.raw()[i] = -0.0f;
  }
  return t;
}

struct ConvRun {
  std::vector<float> y, grad_input, grad_weight, grad_bias;
};

// Runs `backward_calls` forward/backward pairs (no zero_grad in between, so
// the parameter gradients accumulate) on a layer built from a fixed seed,
// under `tier`. With backward_calls == 0 it runs forward only.
ConvRun run_conv(core::KernelTier tier, const ConvShape& s, int backward_calls) {
  core::KernelDispatch::ScopedForce forced(tier);
  std::mt19937 rng(41);
  nn::Conv2d layer(s.in_ch, s.out_ch, s.kernel, s.stride, s.pad, rng);
  layer.params()[1]->raw()[0] = -0.0f;  // a -0.0f bias must survive forward
  tensor::Tensor x = with_zeros({s.batch, s.in_ch, s.size, s.size}, rng);
  // An infinite input read under zero g's: the reference skips those terms,
  // so a fast tier that formed 0·inf = NaN in their lanes would differ.
  x.raw()[x.size() > 1 ? 1 : 0] = std::numeric_limits<float>::infinity();
  ConvRun run;
  const tensor::Tensor y = layer.forward(x);
  run.y = bytes_of(y);
  for (int call = 0; call < backward_calls; ++call) {
    if (call > 0) layer.forward(x);
    const tensor::Tensor gx = layer.backward(with_zeros(y.shape(), rng));
    run.grad_input = bytes_of(gx);
  }
  run.grad_weight = bytes_of(*layer.grads()[0]);
  run.grad_bias = bytes_of(*layer.grads()[1]);
  return run;
}

TEST(KernelEquivalence, Conv2dForwardBitIdentical) {
  for (const ConvShape& s : kConvShapes) {
    const ConvRun scalar = run_conv(core::KernelTier::kScalar, s, 0);
    const ConvRun fast = run_conv(core::KernelTier::kFast, s, 0);
    expect_bytes_equal(scalar.y, fast.y, "y " + describe(s));
  }
}

TEST(KernelEquivalence, Conv2dBackwardBitIdentical) {
  for (const ConvShape& s : kConvShapes) {
    const ConvRun scalar = run_conv(core::KernelTier::kScalar, s, 2);
    const ConvRun fast = run_conv(core::KernelTier::kFast, s, 2);
    expect_bytes_equal(scalar.grad_input, fast.grad_input,
                       "grad_input " + describe(s));
    expect_bytes_equal(scalar.grad_weight, fast.grad_weight,
                       "grad_weight " + describe(s));
    expect_bytes_equal(scalar.grad_bias, fast.grad_bias,
                       "grad_bias " + describe(s));
  }
}

// --- Dispatch plumbing -------------------------------------------------

TEST(KernelEquivalence, ScopedForceSelectsTier) {
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kScalar);
    EXPECT_EQ(core::KernelDispatch::tier(), core::KernelTier::kScalar);
    EXPECT_STREQ(core::KernelDispatch::tier_name(), "scalar");
    {
      core::KernelDispatch::ScopedForce nested(core::KernelTier::kFast);
      EXPECT_TRUE(core::KernelDispatch::fast());
    }
    EXPECT_FALSE(core::KernelDispatch::fast());
  }
  // Dispatched entry points honor the override: the same call under both
  // forces must agree (they run different code paths).
  const std::vector<float> values = random_values(5000, 31);
  std::vector<std::uint32_t> idx_scalar, idx_fast;
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kScalar);
    compress::topk_indices_into(values, 500, idx_scalar);
  }
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kFast);
    compress::topk_indices_into(values, 500, idx_fast);
  }
  EXPECT_EQ(idx_scalar, idx_fast);
}

}  // namespace
