#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>

#include "core/averaging.hpp"
#include "core/cutoff.hpp"
#include "core/kernel_dispatch.hpp"
#include "core/ranker.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "compress/topk.hpp"
#include "net/serializer.hpp"
#include "test_util.hpp"

namespace jwins::core {
namespace {

// ------------------------------------------------------------------ cutoff

TEST(RandomizedCutoff, PaperDefaultDistribution) {
  const RandomizedCutoff cutoff = RandomizedCutoff::paper_default();
  EXPECT_EQ(cutoff.alphas().size(), 7u);
  // E[alpha] = mean of {.1,.15,.2,.25,.3,.4,1.0} = 0.3428...
  EXPECT_NEAR(cutoff.expected_alpha(), 2.4 / 7.0, 1e-9);
}

TEST(RandomizedCutoff, SamplesMatchProbabilities) {
  const RandomizedCutoff cutoff = RandomizedCutoff::two_point(0.1, 0.1);
  std::mt19937_64 rng(3);
  std::size_t full = 0;
  const std::size_t trials = 20000;
  for (std::size_t i = 0; i < trials; ++i) {
    const double a = cutoff.sample(rng);
    EXPECT_TRUE(a == 0.1 || a == 1.0);
    if (a == 1.0) ++full;
  }
  EXPECT_NEAR(static_cast<double>(full) / trials, 0.1, 0.01);
}

TEST(RandomizedCutoff, TwoPointBudgets) {
  // The paper's 20% budget: p(100%)=0.1, p(10%)=0.9 -> E = 0.19.
  EXPECT_NEAR(RandomizedCutoff::two_point(0.10, 0.10).expected_alpha(), 0.19, 1e-12);
  // 10% budget: p(100%)=0.05, p(5%)=0.95 -> E = 0.0975.
  EXPECT_NEAR(RandomizedCutoff::two_point(0.05, 0.05).expected_alpha(), 0.0975, 1e-12);
}

TEST(RandomizedCutoff, FixedAlwaysReturnsAlpha) {
  const RandomizedCutoff cutoff = RandomizedCutoff::fixed(0.37);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(cutoff.sample(rng), 0.37);
}

TEST(RandomizedCutoff, ValidatesInputs) {
  EXPECT_THROW(RandomizedCutoff({}, {}), std::invalid_argument);
  EXPECT_THROW(RandomizedCutoff({0.5}, {0.9}), std::invalid_argument);     // sum != 1
  EXPECT_THROW(RandomizedCutoff({1.5}, {1.0}), std::invalid_argument);     // alpha > 1
  EXPECT_THROW(RandomizedCutoff({0.5, 0.6}, {1.0}), std::invalid_argument);
  EXPECT_THROW(RandomizedCutoff::two_point(0.1, 1.0), std::invalid_argument);
}

// ------------------------------------------------------------------ ranker

WaveletRanker::Options identity_options() {
  WaveletRanker::Options opt;
  opt.use_wavelet = false;
  return opt;
}

TEST(WaveletRanker, IdentityTransformAccumulates) {
  WaveletRanker ranker(4, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  const std::vector<float> x0{0, 0, 0, 0};
  const std::vector<float> x1{1, -2, 0, 3};
  auto scores = ranker.accumulate_round_change(x0, x1, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], -2.0f);
  EXPECT_FLOAT_EQ(scores[3], 3.0f);
  // Second round accumulates on top (eq. 3).
  const std::vector<float> x2{2, -2, 0, 3};
  scores = ranker.accumulate_round_change(x1, x2, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 2.0f);
  EXPECT_FLOAT_EQ(scores[1], -2.0f);
}

TEST(WaveletRanker, NoAccumulationClearsEachRound) {
  auto opt = identity_options();
  opt.use_accumulation = false;
  WaveletRanker ranker(3, opt);
  Arena arena;
  dwt::DwtWorkspace ws;
  ranker.accumulate_round_change(std::vector<float>{0, 0, 0},
                                 std::vector<float>{5, 5, 5}, arena, ws);
  const auto scores = ranker.accumulate_round_change(
      std::vector<float>{5, 5, 5}, std::vector<float>{6, 5, 5}, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 1.0f);  // only this round's change
  EXPECT_FLOAT_EQ(scores[1], 0.0f);
}

TEST(WaveletRanker, FinishRoundResetsSentEntries) {
  WaveletRanker ranker(4, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  ranker.accumulate_round_change(std::vector<float>{0, 0, 0, 0},
                                 std::vector<float>{1, 2, 3, 4}, arena, ws);
  // Suppose averaging leaves the model unchanged; entries 1 and 3 were sent.
  const std::vector<std::uint32_t> sent{1, 3};
  ranker.finish_round(std::vector<float>{1, 2, 3, 4},
                      std::vector<float>{1, 2, 3, 4}, sent, arena, ws);
  const auto scores = ranker.scores();
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], 0.0f);  // reset
  EXPECT_FLOAT_EQ(scores[2], 3.0f);
  EXPECT_FLOAT_EQ(scores[3], 0.0f);  // reset
}

TEST(WaveletRanker, FinishRoundFoldsAveragingChange) {
  // Eq. (4): V_{t+1} = V_t + T(x^{t+1,0} - x^{t,0}) (then resets). With the
  // identity transform this is directly checkable.
  WaveletRanker ranker(2, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  // V' = (1, 1), then + (0.5, -0.5).
  ranker.accumulate_round_change(std::vector<float>{0, 0},
                                 std::vector<float>{1, 1}, arena, ws);
  ranker.finish_round(std::vector<float>{1, 1}, std::vector<float>{1.5, 0.5},
                      {}, arena, ws);
  const auto scores = ranker.scores();
  EXPECT_FLOAT_EQ(scores[0], 1.5f);
  EXPECT_FLOAT_EQ(scores[1], 0.5f);
}

TEST(WaveletRanker, WaveletModeUsesTransformDomain) {
  WaveletRanker::Options opt;  // defaults: sym2, 4 levels, wavelet on
  WaveletRanker ranker(64, opt);
  Arena arena;
  dwt::DwtWorkspace ws;
  EXPECT_EQ(ranker.coeff_length(), 64u);
  std::vector<float> x0(64, 0.0f), x1(64, 1.0f);
  const auto scores = ranker.accumulate_round_change(x0, x1, arena, ws);
  // Constant change -> only approximation-band coefficients are non-zero.
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 4; ++i) head += std::abs(scores[i]);
  for (std::size_t i = 4; i < 64; ++i) tail += std::abs(scores[i]);
  EXPECT_GT(head, 1.0);
  EXPECT_NEAR(tail, 0.0, 1e-4);
}

TEST(WaveletRanker, TransformInverseRoundTrip) {
  WaveletRanker::Options opt;
  WaveletRanker ranker(100, opt);
  Arena arena;
  dwt::DwtWorkspace ws;
  std::mt19937 rng(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> x(100);
  for (float& v : x) v = dist(rng);
  std::vector<float> coeffs(ranker.coeff_length());
  ranker.transform_into(x, coeffs, ws);
  std::vector<float> back(x.size());
  ranker.inverse_into(coeffs, back, ws);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-4f);
}

TEST(WaveletRanker, SizeMismatchThrows) {
  WaveletRanker ranker(8, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  const std::vector<float> wrong(5, 0.0f);
  const std::vector<float> right(8, 0.0f);
  EXPECT_THROW(ranker.accumulate_round_change(wrong, right, arena, ws),
               std::invalid_argument);
  std::vector<float> coeffs(ranker.coeff_length());
  EXPECT_THROW(ranker.transform_into(wrong, coeffs, ws), std::invalid_argument);
  EXPECT_THROW(ranker.finish_round(wrong, right, {}, arena, ws),
               std::invalid_argument);
}

// ----------------------------------------------------------------- payload

struct PayloadCase {
  IndexEncoding index_mode;
  ValueEncoding value_mode;
};

class PayloadParam : public ::testing::TestWithParam<PayloadCase> {};

TEST_P(PayloadParam, EncodeDecodeRoundTrip) {
  const auto [index_mode, value_mode] = GetParam();
  SparsePayload payload;
  payload.vector_length = 1000;
  PayloadOptions options;
  options.index_encoding = index_mode;
  options.value_encoding = value_mode;
  std::mt19937 rng(9);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  if (index_mode == IndexEncoding::kDense) {
    payload.values.resize(1000);
    for (float& v : payload.values) v = dist(rng);
  } else if (index_mode == IndexEncoding::kSeed) {
    options.seed = 424242;
    payload.indices = testutil::sampled_indices(1000, 100, options.seed);
    payload.values = std::vector<float>(100);
    for (float& v : payload.values) v = dist(rng);
  } else {
    payload.indices = testutil::sampled_indices(1000, 100, 7);
    payload.values = std::vector<float>(100);
    for (float& v : payload.values) v = dist(rng);
  }

  const auto encoded = testutil::encode_body(payload, options);
  EXPECT_GT(encoded.metadata_bytes, 0u);
  EXPECT_LT(encoded.metadata_bytes, encoded.body.size());
  const SparsePayload back = testutil::decode_body(encoded.body);
  EXPECT_EQ(back.vector_length, payload.vector_length);
  EXPECT_EQ(back.values, payload.values);
  if (index_mode == IndexEncoding::kDense) {
    EXPECT_TRUE(back.dense());
  } else {
    EXPECT_EQ(back.indices, payload.indices);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PayloadParam,
    ::testing::Values(PayloadCase{IndexEncoding::kDense, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kEliasGamma, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kRaw, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kSeed, ValueEncoding::kRaw}));

// The value section: every payload carries its values as a u32 count plus
// raw f32s. Round-trips `values` as a dense payload and checks that the
// section costs exactly 4 bytes per value.
std::vector<float> value_round_trip(std::span<const float> values) {
  const PayloadView view(static_cast<std::uint32_t>(values.size()), {}, values);
  const auto encoded = testutil::encode_body(
      view, {IndexEncoding::kDense, ValueEncoding::kRaw, 0});
  EXPECT_EQ(encoded.body.size(),
            encoded.metadata_bytes + 4 + 4 * values.size());
  return testutil::decode_body(encoded.body).values;
}

void expect_bit_identical(std::span<const float> back,
                          std::span<const float> values) {
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Bit-exact comparison (covers -0.0 vs 0.0 and NaN payloads).
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(values[i]));
  }
}

TEST(FloatCodec, EmptyStream) {
  EXPECT_TRUE(value_round_trip({}).empty());
}

TEST(FloatCodec, SingleValue) {
  const std::vector<float> vals{3.14159f};
  EXPECT_EQ(value_round_trip(vals), vals);
}

TEST(FloatCodec, SpecialValuesAreLossless) {
  const std::vector<float> vals{
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      1e-38f, -1e38f};
  expect_bit_identical(value_round_trip(vals), vals);
}

TEST(FloatCodec, NanPreservedBitExact) {
  const std::vector<float> vals{1.0f, std::numeric_limits<float>::quiet_NaN(),
                                2.0f};
  expect_bit_identical(value_round_trip(vals), vals);
}

class FloatCodecSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FloatCodecSweep, RandomStreamsRoundTripLosslessly) {
  std::mt19937 rng(GetParam());
  std::normal_distribution<float> dist(0.0f, 2.0f);
  std::vector<float> vals(1537);
  for (float& v : vals) v = dist(rng);
  expect_bit_identical(value_round_trip(vals), vals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatCodecSweep, ::testing::Range(1u, 9u));

TEST(Payload, EliasMetadataMuchSmallerThanRaw) {
  SparsePayload payload;
  payload.vector_length = 100000;
  payload.indices = testutil::sampled_indices(100000, 30000, 3);
  payload.values.assign(30000, 1.0f);
  PayloadOptions elias;
  elias.index_encoding = IndexEncoding::kEliasGamma;
  elias.value_encoding = ValueEncoding::kRaw;
  PayloadOptions raw = elias;
  raw.index_encoding = IndexEncoding::kRaw;
  const auto e = testutil::encode_body(payload, elias);
  const auto r = testutil::encode_body(payload, raw);
  // Figure 9: Elias gamma shrinks the metadata by roughly an order of
  // magnitude relative to 4-byte raw indices for dense-ish selections.
  EXPECT_LT(e.metadata_bytes * 5, r.metadata_bytes);
}

TEST(Payload, SeedMetadataIsConstantSize) {
  SparsePayload payload;
  payload.vector_length = 50000;
  PayloadOptions options;
  options.index_encoding = IndexEncoding::kSeed;
  options.seed = 99;
  options.value_encoding = ValueEncoding::kRaw;
  payload.indices = testutil::sampled_indices(50000, 10000, 99);
  payload.values.assign(10000, 0.5f);
  const auto encoded = testutil::encode_body(payload, options);
  // header (2 + 4 + 4) + seed (8) = 18 bytes of metadata regardless of k.
  EXPECT_EQ(encoded.metadata_bytes, 18u);
}

TEST(Payload, MalformedDenseThrows) {
  SparsePayload payload;
  payload.vector_length = 10;
  payload.values.assign(5, 1.0f);  // wrong size for dense
  PayloadOptions options;
  options.index_encoding = IndexEncoding::kDense;
  EXPECT_THROW(testutil::encode_body(payload, options), std::invalid_argument);
}

TEST(Payload, TruncatedBodyThrows) {
  SparsePayload payload;
  payload.vector_length = 10;
  payload.indices = {1, 5};
  payload.values = {1.0f, 2.0f};
  const auto encoded = testutil::encode_body(payload, {});
  std::vector<std::uint8_t> cut(encoded.body.begin(), encoded.body.end() - 3);
  EXPECT_THROW(testutil::decode_body(cut), std::exception);
}

/// A 15-byte body claiming 0xFFFFFFF0 entries: under kEliasGamma the count
/// meets a 1-byte index blob; under kDense the raw value array's length
/// prefix claims as many floats with one byte behind it.
std::vector<std::uint8_t> oversized_count_body(IndexEncoding index_mode) {
  net::ByteWriter writer;
  writer.write_u8(static_cast<std::uint8_t>(index_mode));
  writer.write_u8(static_cast<std::uint8_t>(ValueEncoding::kRaw));
  writer.write_u32(0xFFFFFFF0u);  // vector_length (dense requires == count)
  writer.write_u32(0xFFFFFFF0u);  // count
  const std::uint8_t section[] = {0xFF};
  if (index_mode == IndexEncoding::kDense) {
    writer.write_u32(0xFFFFFFF0u);  // the value array's own length prefix
    writer.write_u8(section[0]);
  } else {
    writer.write_bytes(section);
  }
  return std::move(writer).take();
}

TEST(Payload, OversizedCountThrowsBeforeAllocatingOnBothTiers) {
  // No valid stream has more entries than its section has bytes (or, for
  // Elias gamma, bits), so both the index blob and the dense value array
  // must reject the count cleanly instead of reserving ~16 GiB. The raw
  // array is refused by ByteReader's length check (std::out_of_range).
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kFast}) {
    KernelDispatch::ScopedForce forced(tier);
    for (const IndexEncoding mode :
         {IndexEncoding::kEliasGamma, IndexEncoding::kDense}) {
      const std::vector<std::uint8_t> body = oversized_count_body(mode);
      ASSERT_EQ(body.size(), 15u);
      SparsePayload out;
      Arena arena;
      if (mode == IndexEncoding::kDense) {
        EXPECT_THROW(decode_payload_into(body, out, arena), std::out_of_range)
            << "tier " << static_cast<int>(tier);
      } else {
        EXPECT_THROW(decode_payload_into(body, out, arena), std::runtime_error)
            << "tier " << static_cast<int>(tier);
      }
      EXPECT_EQ(out.indices.capacity(), 0u);  // nothing was resized
      EXPECT_EQ(out.values.capacity(), 0u);
    }
  }
}

// The two mode bytes are checked before any section is read: an unknown
// index mode, or any value mode but kRaw (0 is the retired XOR codec's
// tag), is refused even when the rest of the body is a valid payload.
using ModeTags = std::pair<std::uint8_t, std::uint8_t>;  // (index, value)

class PayloadModeTag : public ::testing::TestWithParam<ModeTags> {};

TEST_P(PayloadModeTag, UnknownTagIsRejected) {
  const auto [index_tag, value_tag] = GetParam();
  SparsePayload payload;
  payload.vector_length = 10;
  payload.indices = {1, 5};
  payload.values = {1.0f, 2.0f};
  const PayloadOptions options{IndexEncoding::kRaw, ValueEncoding::kRaw, 0};
  std::vector<std::uint8_t> body = testutil::encode_body(payload, options).body;
  EXPECT_EQ(testutil::decode_body(body).values, payload.values);
  body[0] = index_tag;
  body[1] = value_tag;
  SparsePayload out;
  Arena arena;
  EXPECT_THROW(decode_payload_into(body, out, arena), std::runtime_error);
  EXPECT_EQ(out.vector_length, 0u);  // refused before the length is read
}

INSTANTIATE_TEST_SUITE_P(
    Tags, PayloadModeTag,
    ::testing::Values(ModeTags{4, 1}, ModeTags{0xFF, 1}, ModeTags{2, 0},
                      ModeTags{2, 2}, ModeTags{2, 0xFF}, ModeTags{4, 0}),
    [](const ::testing::TestParamInfo<ModeTags>& info) {
      return "index" + std::to_string(info.param.first) + "_value" +
             std::to_string(info.param.second);
    });

TEST(Payload, EmptySparsePayloadIsANoOpContribution) {
  // A sparse payload with zero entries is a valid message (18 bytes, or 22
  // under kSeed). Decoded, it must not read as dense: averaging it in must
  // leave the receiver's model exactly as it was — also when it lands in a
  // recycled pool slot whose buffers still hold a previous payload.
  constexpr std::uint32_t kLength = 1000;
  std::vector<float> model(kLength);
  for (std::size_t i = 0; i < model.size(); ++i) {
    model[i] = 0.25f * static_cast<float>(i);
  }
  core::SparsePayload full;
  full.vector_length = kLength;
  full.values.assign(kLength, 99.0f);
  const PayloadOptions dense{IndexEncoding::kDense, ValueEncoding::kRaw, 0};
  const auto full_body = testutil::encode_body(full, dense).body;
  // Refilled by std::copy, not copy-assigned: GCC 12 at -O2 reports a
  // -Wstringop-overflow false positive on the vector copy here.
  std::vector<float> own(kLength);

  for (const IndexEncoding mode : {IndexEncoding::kEliasGamma,
                                   IndexEncoding::kRaw, IndexEncoding::kSeed}) {
    SparsePayload empty;
    empty.vector_length = kLength;
    const auto body =
        testutil::encode_body(empty, {mode, ValueEncoding::kRaw, 7}).body;
    EXPECT_EQ(body.size(), mode == IndexEncoding::kSeed ? 22u : 18u);

    Arena arena;
    PayloadPool pool;
    decode_payload_into(full_body, pool.next(), arena);
    pool.reset();
    SparsePayload& recycled = pool.next();
    decode_payload_into(body, recycled, arena);
    SparsePayload fresh = testutil::decode_body(body);
    for (const SparsePayload* decoded : {&fresh, &recycled}) {
      EXPECT_FALSE(decoded->dense());
      EXPECT_TRUE(decoded->indices.empty());
      EXPECT_TRUE(decoded->values.empty());
      const std::vector<WeightedContribution> contribs{{0.5, decoded}};
      std::copy(model.begin(), model.end(), own.begin());
      partial_average(own, 0.5, contribs, arena);
      EXPECT_EQ(own, model) << "index mode " << static_cast<int>(mode);
      for (const RobustAggKind kind :
           {RobustAggKind::kNone, RobustAggKind::kTrimmedMean,
            RobustAggKind::kMedian, RobustAggKind::kNormClip}) {
        RobustAggConfig cfg;
        cfg.kind = kind;
        std::copy(model.begin(), model.end(), own.begin());
        robust_partial_average(cfg, own, 0.5, contribs, arena);
        EXPECT_EQ(own, model) << "index mode " << static_cast<int>(mode)
                              << ", rule " << robust_agg_name(kind);
      }
    }
  }
}

TEST(Payload, SeedCountAboveLengthIsRejected) {
  // A kSeed header cannot name more distinct indices than the vector has.
  net::ByteWriter writer;
  writer.write_u8(static_cast<std::uint8_t>(IndexEncoding::kSeed));
  writer.write_u8(static_cast<std::uint8_t>(ValueEncoding::kRaw));
  writer.write_u32(4);  // vector_length
  writer.write_u32(5);  // count
  writer.write_u64(1);  // seed
  writer.write_f32_array(std::vector<float>(5, 1.0f));
  SparsePayload out;
  Arena arena;
  EXPECT_THROW(decode_payload_into(writer.buffer(), out, arena),
               std::runtime_error);
}

TEST(Payload, MakeMessageWiresAccounting) {
  SparsePayload payload;
  payload.vector_length = 100;
  payload.indices = testutil::sampled_indices(100, 10, 1);
  payload.values.assign(10, 2.0f);
  net::BufferPool pool;
  compress::BitWriter bits;
  const net::Message msg = make_message(3, 7, payload, {}, pool, bits);
  EXPECT_EQ(msg.sender, 3u);
  EXPECT_EQ(msg.round, 7u);
  EXPECT_GT(msg.metadata_bytes, 0u);
  EXPECT_GT(msg.payload_bytes(), 0u);
  EXPECT_EQ(msg.body.size(), msg.metadata_bytes + msg.payload_bytes());
}

// --------------------------------------------------------------- averaging

TEST(PartialAverage, DenseReducesToWeightedMean) {
  Arena arena;
  std::vector<float> own{1.0f, 1.0f};
  SparsePayload p1;
  p1.vector_length = 2;
  p1.values = {3.0f, 5.0f};
  SparsePayload p2;
  p2.vector_length = 2;
  p2.values = {7.0f, 9.0f};
  const std::vector<WeightedContribution> contribs{{0.25, &p1}, {0.25, &p2}};
  partial_average(own, 0.5, contribs, arena);
  EXPECT_FLOAT_EQ(own[0], 0.5f * 1 + 0.25f * 3 + 0.25f * 7);
  EXPECT_FLOAT_EQ(own[1], 0.5f * 1 + 0.25f * 5 + 0.25f * 9);
}

TEST(PartialAverage, MissingCoordinatesKeepOwnValue) {
  Arena arena;
  std::vector<float> own{1.0f, 2.0f, 3.0f};
  SparsePayload p;
  p.vector_length = 3;
  p.indices = {1};
  p.values = {10.0f};
  const std::vector<WeightedContribution> contribs{{0.5, &p}};
  partial_average(own, 0.5, contribs, arena);
  EXPECT_FLOAT_EQ(own[0], 1.0f);  // nobody contributed -> unchanged
  EXPECT_FLOAT_EQ(own[1], 6.0f);  // (0.5*2 + 0.5*10) / 1.0
  EXPECT_FLOAT_EQ(own[2], 3.0f);
}

TEST(PartialAverage, RenormalizesOverContributors) {
  Arena arena;
  // Two sparse neighbors overlap on index 0 only.
  std::vector<float> own{0.0f, 0.0f};
  SparsePayload p1;
  p1.vector_length = 2;
  p1.indices = {0};
  p1.values = {6.0f};
  SparsePayload p2;
  p2.vector_length = 2;
  p2.indices = {0, 1};
  p2.values = {12.0f, 4.0f};
  const std::vector<WeightedContribution> contribs{{0.25, &p1}, {0.25, &p2}};
  partial_average(own, 0.5, contribs, arena);
  // idx0: (0.5*0 + 0.25*6 + 0.25*12) / 1.0 = 4.5
  EXPECT_FLOAT_EQ(own[0], 4.5f);
  // idx1: (0.5*0 + 0.25*4) / 0.75 = 4/3
  EXPECT_NEAR(own[1], 4.0f / 3.0f, 1e-5f);
}

TEST(PartialAverage, ConvexityBound) {
  Arena arena;
  // The averaged value never escapes [min, max] of the contributions.
  std::mt19937 rng(12);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> own(50);
  for (float& v : own) v = dist(rng);
  SparsePayload p;
  p.vector_length = 50;
  p.indices = testutil::sampled_indices(50, 20, 5);
  p.values.resize(20);
  for (float& v : p.values) v = dist(rng);
  std::vector<float> before = own;
  const std::vector<WeightedContribution> contribs{{0.5, &p}};
  partial_average(own, 0.5, contribs, arena);
  for (std::size_t i = 0; i < p.indices.size(); ++i) {
    const std::size_t idx = p.indices[i];
    const float lo = std::min(before[idx], p.values[i]);
    const float hi = std::max(before[idx], p.values[i]);
    EXPECT_GE(own[idx], lo - 1e-5f);
    EXPECT_LE(own[idx], hi + 1e-5f);
  }
}

TEST(PartialAverage, ValidatesInputs) {
  Arena arena;
  std::vector<float> own{1.0f};
  SparsePayload wrong_len;
  wrong_len.vector_length = 7;
  wrong_len.values = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<WeightedContribution> c1{{0.5, &wrong_len}};
  EXPECT_THROW(partial_average(own, 0.5, c1, arena), std::invalid_argument);
  const std::vector<WeightedContribution> c2{{0.5, nullptr}};
  EXPECT_THROW(partial_average(own, 0.5, c2, arena), std::invalid_argument);
  SparsePayload bad_idx;
  bad_idx.vector_length = 1;
  bad_idx.indices = {9};
  bad_idx.values = {1.0f};
  const std::vector<WeightedContribution> c3{{0.5, &bad_idx}};
  EXPECT_THROW(partial_average(own, 0.5, c3, arena), std::out_of_range);
}

TEST(PartialAverageScaled, ScaleEqualsReweighting) {
  Arena arena;
  // Scaling a contribution by s is exactly the same convex combination as
  // shrinking its mixing weight to s * w (numerator AND denominator).
  std::vector<float> scaled_own{1.0f, 2.0f};
  std::vector<float> reweighted_own = scaled_own;
  SparsePayload p;
  p.vector_length = 2;
  p.values = {9.0f, 5.0f};
  const std::vector<WeightedContribution> contribs{{0.4, &p}};
  const std::vector<double> scales{0.5};
  partial_average(scaled_own, 0.6, contribs,
                  std::span<const double>(scales), arena);
  const std::vector<WeightedContribution> shrunk{{0.4 * 0.5, &p}};
  partial_average(reweighted_own, 0.6, shrunk, arena);
  EXPECT_EQ(scaled_own, reweighted_own);
}

TEST(PartialAverageScaled, StaysConvexAndRenormalized) {
  Arena arena;
  // With scales < 1 the effective weights no longer sum to 1, but the
  // per-coordinate denominator renormalizes: the result is still a convex
  // combination of own value and contributions.
  std::vector<float> own{0.0f};
  SparsePayload p1;
  p1.vector_length = 1;
  p1.values = {10.0f};
  SparsePayload p2;
  p2.vector_length = 1;
  p2.values = {20.0f};
  const std::vector<WeightedContribution> contribs{{0.25, &p1}, {0.25, &p2}};
  const std::vector<double> scales{0.5, 0.25};
  partial_average(own, 0.5, contribs, std::span<const double>(scales), arena);
  // (0.5*0 + 0.125*10 + 0.0625*20) / (0.5 + 0.125 + 0.0625) = 2.5/0.6875
  EXPECT_NEAR(own[0], 2.5f / 0.6875f, 1e-5f);
  EXPECT_GE(own[0], 0.0f);
  EXPECT_LE(own[0], 20.0f);
}

TEST(PartialAverageScaled, AllOnesIsBitIdenticalToLegacy) {
  Arena arena;
  // scale == 1.0 multiplies by exactly 1.0 in IEEE arithmetic, so the
  // scaled overload with unit scales must produce the same bytes as the
  // legacy overload — the guarantee the weighted async mode's lambda = 1
  // reduction rests on.
  std::mt19937 rng(77);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> a(64), b;
  for (float& v : a) v = dist(rng);
  b = a;
  SparsePayload p;
  p.vector_length = 64;
  p.indices = testutil::sampled_indices(64, 32, 9);
  p.values.resize(32);
  for (float& v : p.values) v = dist(rng);
  const std::vector<WeightedContribution> contribs{{0.37, &p}};
  const std::vector<double> ones{1.0};
  partial_average(a, 0.63, contribs, std::span<const double>(ones), arena);
  partial_average(b, 0.63, contribs, arena);
  EXPECT_EQ(a, b);
}

TEST(PartialAverageScaled, ScaleCountMismatchThrows) {
  Arena arena;
  std::vector<float> own{1.0f};
  SparsePayload p;
  p.vector_length = 1;
  p.values = {2.0f};
  const std::vector<WeightedContribution> contribs{{0.5, &p}};
  const std::vector<double> scales{0.5, 0.5};  // two scales, one contribution
  EXPECT_THROW(
      partial_average(own, 0.5, contribs, std::span<const double>(scales),
                      arena),
      std::invalid_argument);
}

}  // namespace
}  // namespace jwins::core
