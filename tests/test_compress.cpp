#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "compress/bitstream.hpp"
#include "compress/elias.hpp"
#include "compress/topk.hpp"
#include "test_util.hpp"

namespace jwins::compress {
namespace {

// ---------------------------------------------------------------- bitstream

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<bool> bits{true, false, true, true, false, false, true};
  for (bool b : bits) w.write_bit(b);
  EXPECT_EQ(w.bit_count(), bits.size());
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  for (bool b : bits) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.write_bits(0b1011, 4);
  w.write_bits(0xDEADBEEF, 32);
  w.write_bits(1, 1);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_EQ(r.read_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.read_bits(1), 1u);
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xFF, 8);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  r.read_bits(8);
  EXPECT_THROW(r.read_bit(), std::out_of_range);
}

TEST(BitStream, CountTooLargeThrows) {
  BitWriter w;
  EXPECT_THROW(w.write_bits(0, 65), std::invalid_argument);
  std::vector<std::uint8_t> buf(16);
  BitReader r(buf);
  EXPECT_THROW(r.read_bits(65), std::invalid_argument);
}

// -------------------------------------------------------------------- elias

TEST(EliasGamma, KnownCodewords) {
  // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100".
  BitWriter w;
  elias_gamma_encode(w, 1);
  EXPECT_EQ(w.bit_count(), 1u);
  elias_gamma_encode(w, 2);
  EXPECT_EQ(w.bit_count(), 4u);
  elias_gamma_encode(w, 4);
  EXPECT_EQ(w.bit_count(), 9u);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(elias_gamma_decode(r), 1u);
  EXPECT_EQ(elias_gamma_decode(r), 2u);
  EXPECT_EQ(elias_gamma_decode(r), 4u);
}

TEST(EliasGamma, ZeroThrows) {
  BitWriter w;
  EXPECT_THROW(elias_gamma_encode(w, 0), std::invalid_argument);
}

class EliasRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EliasRoundTrip, GammaAndDelta) {
  const std::uint64_t value = GetParam();
  BitWriter w;
  elias_gamma_encode(w, value);
  elias_delta_encode(w, value);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(elias_gamma_decode(r), value);
  EXPECT_EQ(elias_delta_decode(r), value);
}

INSTANTIATE_TEST_SUITE_P(Values, EliasRoundTrip,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 8ull, 255ull,
                                           256ull, 1023ull, 65536ull,
                                           123456789ull, (1ull << 40) + 17));

TEST(EliasGamma, RandomStreamRoundTrip) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> values;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    // Mix of small (common for gaps) and occasionally large values.
    const std::uint64_t v = (rng() % 64 == 0) ? (rng() % 1000000 + 1)
                                              : (rng() % 16 + 1);
    values.push_back(v);
    elias_gamma_encode(w, v);
  }
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  for (std::uint64_t v : values) EXPECT_EQ(elias_gamma_decode(r), v);
}

// Encodes into a fresh BitWriter and returns the code bytes.
std::vector<std::uint8_t> gaps_of(std::span<const std::uint32_t> indices) {
  BitWriter w;
  encode_index_gaps(indices, w);
  return w.bytes();
}

TEST(IndexGaps, RoundTripIncludingZeroFirstIndex) {
  const std::vector<std::uint32_t> indices{0, 1, 5, 6, 100, 101, 4096};
  const auto bytes = gaps_of(indices);
  std::vector<std::uint32_t> back;
  decode_index_gaps_into(bytes, indices.size(), back);
  EXPECT_EQ(back, indices);
}

TEST(IndexGaps, EmptyArray) {
  const auto bytes = gaps_of({});
  EXPECT_TRUE(bytes.empty());
  std::vector<std::uint32_t> back{7};
  decode_index_gaps_into(bytes, 0, back);
  EXPECT_TRUE(back.empty());
}

TEST(IndexGaps, NonMonotonicThrows) {
  BitWriter w;
  const std::vector<std::uint32_t> bad{3, 3};
  EXPECT_THROW(encode_index_gaps(bad, w), std::invalid_argument);
  const std::vector<std::uint32_t> bad2{5, 2};
  EXPECT_THROW(encode_index_gaps(bad2, w), std::invalid_argument);
}

TEST(IndexGaps, SizeEstimatorMatchesActual) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> indices;
    std::uint32_t cur = rng() % 5;
    for (int i = 0; i < 300; ++i) {
      indices.push_back(cur);
      cur += 1 + rng() % 50;
    }
    EXPECT_EQ(index_gaps_encoded_size(indices), gaps_of(indices).size());
  }
}

TEST(IndexGaps, DenseIndicesCompressWell) {
  // Gap arrays of a dense TopK selection are mostly small -> far below
  // 4 bytes/index. This is the Figure-9 mechanism.
  std::vector<std::uint32_t> indices;
  std::mt19937 rng(3);
  std::uint32_t cur = 0;
  for (int i = 0; i < 1000; ++i) {
    cur += 1 + rng() % 3;
    indices.push_back(cur);
  }
  const auto bytes = gaps_of(indices);
  EXPECT_LT(bytes.size() * 4, indices.size() * 4);  // > 4x better than raw
}

class IndexGapsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexGapsSweep, RandomSubsetsRoundTrip) {
  const std::size_t k = GetParam();
  const auto indices =
      testutil::sampled_indices(100000, k, /*seed=*/k * 977 + 1);
  std::vector<std::uint32_t> back;
  decode_index_gaps_into(gaps_of(indices), indices.size(), back);
  EXPECT_EQ(back, indices);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexGapsSweep,
                         ::testing::Values(1u, 2u, 10u, 100u, 1000u, 10000u));

// --------------------------------------------------------------------- topk

std::vector<std::uint32_t> topk(std::span<const float> values, std::size_t k) {
  std::vector<std::uint32_t> out;
  topk_indices_into(values, k, out);
  return out;
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> v{0.1f, -5.0f, 3.0f, -0.2f, 4.0f};
  const auto idx = topk(v, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 4}));
}

TEST(TopK, SortedAscendingOutput) {
  std::mt19937 rng(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(500);
  for (float& x : v) x = dist(rng);
  const auto idx = topk(v, 50);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_EQ(idx.size(), 50u);
}

TEST(TopK, ThresholdProperty) {
  // Every selected magnitude >= every unselected magnitude.
  std::mt19937 rng(17);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(200);
  for (float& x : v) x = dist(rng);
  const auto idx = topk(v, 40);
  std::vector<bool> selected(v.size(), false);
  float min_selected = std::numeric_limits<float>::infinity();
  for (auto i : idx) {
    selected[i] = true;
    min_selected = std::min(min_selected, std::fabs(v[i]));
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!selected[i]) {
      EXPECT_LE(std::fabs(v[i]), min_selected + 1e-6f);
    }
  }
}

TEST(TopK, KLargerThanNReturnsAll) {
  const std::vector<float> v{1.0f, 2.0f};
  const auto idx = topk(v, 10);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopK, ZeroKReturnsEmpty) {
  const std::vector<float> v{1.0f, 2.0f};
  EXPECT_TRUE(topk(v, 0).empty());
}

TEST(RandomIndices, DistinctSortedDeterministic) {
  const auto a = testutil::sampled_indices(1000, 100, 42);
  const auto b = testutil::sampled_indices(1000, 100, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 1000u);
}

TEST(RandomIndices, DifferentSeedsDiffer) {
  const auto a = testutil::sampled_indices(1000, 100, 1);
  const auto b = testutil::sampled_indices(1000, 100, 2);
  EXPECT_NE(a, b);
}

TEST(RandomIndices, FullSelection) {
  const auto a = testutil::sampled_indices(10, 10, 3);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);
}

TEST(RandomIndices, RoughlyUniformCoverage) {
  // Across many seeds, each position should be picked ~k/n of the time.
  const std::size_t n = 50, k = 10, trials = 2000;
  std::vector<std::size_t> hits(n, 0);
  for (std::size_t s = 0; s < trials; ++s) {
    for (auto i : testutil::sampled_indices(n, k, s)) ++hits[i];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]), expected, expected * 0.35)
        << "position " << i;
  }
}

TEST(GatherScatter, RoundTrip) {
  const std::vector<float> dense{0, 10, 20, 30, 40};
  const std::vector<std::uint32_t> idx{1, 3};
  std::vector<float> vals;
  gather_into(dense, idx, vals);
  EXPECT_EQ(vals, (std::vector<float>{10, 30}));
  std::vector<float> out(5, -1.0f);
  scatter(out, idx, vals);
  EXPECT_EQ(out, (std::vector<float>{-1, 10, -1, 30, -1}));
}

TEST(GatherScatter, BoundsChecked) {
  const std::vector<float> dense{1.0f};
  const std::vector<std::uint32_t> bad{5};
  std::vector<float> gathered;
  EXPECT_THROW(gather_into(dense, bad, gathered), std::out_of_range);
  std::vector<float> out(1);
  const std::vector<float> vals{1.0f};
  EXPECT_THROW(scatter(out, bad, vals), std::out_of_range);
  const std::vector<std::uint32_t> idx{0};
  const std::vector<float> too_many{1.0f, 2.0f};
  EXPECT_THROW(scatter(out, idx, too_many), std::invalid_argument);
}

}  // namespace
}  // namespace jwins::compress
