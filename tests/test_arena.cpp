// Round-scratch memory facility: core::Arena invariants (alignment, growth,
// reset/reuse, consolidation), net::BufferPool / SharedBytes recycling,
// PayloadPool slot reuse, no-aliasing across concurrently used arenas, and
// the central refactor guard — every scratch-backed API must give the same
// bytes into a dirty, reused output as into a fresh one, and arena-backed
// engine runs must stay byte-identical across thread counts (the same
// contract test_determinism.cpp pins on the metric level).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "compress/elias.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/arena.hpp"
#include "core/averaging.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"
#include "graph/graph.hpp"
#include "net/buffer.hpp"
#include "net/serializer.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

// --- Arena basics ----------------------------------------------------------

TEST(Arena, AllocatesAlignedSpans) {
  core::Arena arena;
  const auto bytes = arena.alloc<std::uint8_t>(3);
  ASSERT_EQ(bytes.size(), 3u);
  const auto doubles = arena.alloc<double>(4);
  ASSERT_EQ(doubles.size(), 4u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) % alignof(double),
            0u);
  const auto u32 = arena.alloc<std::uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u32.data()) % alignof(std::uint32_t),
            0u);
  // Spans are writable and disjoint.
  for (auto& v : doubles) v = 1.5;
  for (auto& v : u32) v = 7;
  EXPECT_EQ(doubles[3], 1.5);
  EXPECT_EQ(u32[4], 7u);
}

TEST(Arena, ZeroCountReturnsEmptySpanWithoutTouchingArena) {
  core::Arena arena;
  const std::size_t used_before = arena.used();
  const auto span = arena.alloc<float>(0);
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(arena.used(), used_before);
}

TEST(Arena, RejectsUnsupportedAlignment) {
  core::Arena arena;
  EXPECT_THROW(arena.allocate(8, 3), std::invalid_argument);
  EXPECT_THROW(arena.allocate(8, 4096), std::invalid_argument);
}

TEST(Arena, GrowsAcrossBlocksAndConsolidatesOnReset) {
  core::Arena arena(1024);
  EXPECT_EQ(arena.block_count(), 1u);
  // Overflow the first block several times.
  for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t grown_capacity = arena.capacity();
  EXPECT_GE(grown_capacity, 8u * 4096u);
  EXPECT_GE(arena.high_water(), 8u * 4096u);

  arena.reset();
  EXPECT_EQ(arena.block_count(), 1u);  // consolidated
  EXPECT_GE(arena.capacity(), grown_capacity);
  EXPECT_EQ(arena.used(), 0u);

  // The same workload now fits in the single block: steady state.
  for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
  EXPECT_EQ(arena.block_count(), 1u);
  const std::size_t steady_capacity = arena.capacity();
  for (int round = 0; round < 16; ++round) {
    arena.reset();
    for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
    EXPECT_EQ(arena.block_count(), 1u);
    EXPECT_EQ(arena.capacity(), steady_capacity);  // no further growth
  }
}

TEST(Arena, ReserveGuaranteesSingleBlock) {
  core::Arena arena;
  arena.reserve(1 << 16);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.capacity(), std::size_t{1} << 16);
  arena.alloc<double>(4096);  // exactly the reserved bytes
  EXPECT_EQ(arena.block_count(), 1u);
  arena.reset();
  EXPECT_THROW(
      [&] {
        arena.alloc<float>(1);
        arena.reserve(1 << 20);  // outstanding allocations -> logic_error
      }(),
      std::logic_error);
}

TEST(Arena, UsedTracksPaddingAndPayload) {
  core::Arena arena(4096);
  arena.alloc<std::uint8_t>(1);
  const std::size_t after_byte = arena.used();
  EXPECT_EQ(after_byte, 1u);
  arena.alloc<double>(1);  // 7 bytes padding + 8 payload
  EXPECT_EQ(arena.used(), 16u);
  EXPECT_GE(arena.high_water(), arena.used());
}

TEST(Arena, NoAliasingAcrossConcurrentWorkers) {
  // One arena per worker, hammered concurrently: every span must hold
  // exactly the pattern its owner wrote (TSan-clean by construction).
  constexpr int kWorkers = 4;
  constexpr int kRounds = 50;
  std::vector<core::Arena> arenas(kWorkers);
  std::vector<std::thread> threads;
  std::vector<int> failures(kWorkers, 0);
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        arenas[w].reset();
        auto a = arenas[w].alloc<std::uint32_t>(512 + static_cast<std::size_t>(w));
        auto b = arenas[w].alloc<double>(256);
        const auto tag = static_cast<std::uint32_t>(w * 1000 + r);
        for (auto& v : a) v = tag;
        for (auto& v : b) v = static_cast<double>(tag) + 0.5;
        for (const auto& v : a) {
          if (v != tag) ++failures[w];
        }
        for (const auto& v : b) {
          if (v != static_cast<double>(tag) + 0.5) ++failures[w];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(failures[w], 0) << "worker " << w;
}

// --- BufferPool / SharedBytes ----------------------------------------------

TEST(BufferPool, RecyclesStorageThroughAdopt) {
  net::BufferPool pool;
  std::vector<std::uint8_t> buf = pool.acquire();
  buf.assign(1000, 42);
  const std::uint8_t* storage = buf.data();
  {
    const net::SharedBytes body = pool.adopt(std::move(buf));
    EXPECT_EQ(body.size(), 1000u);
    EXPECT_EQ(body.data(), storage);  // adopted, not copied
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  // Last reference dropped -> storage returned to the pool.
  EXPECT_EQ(pool.idle_count(), 1u);
  const std::vector<std::uint8_t> again = pool.acquire();
  EXPECT_EQ(again.data(), storage);  // same heap buffer, cleared
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 1000u);
}

TEST(BufferPool, FanOutSharesOneBuffer) {
  net::BufferPool pool;
  auto buf = pool.acquire();
  buf.assign(64, 7);
  const net::SharedBytes body = pool.adopt(std::move(buf));
  net::Message msg;
  msg.body = body;
  const net::Message copy1 = msg;
  const net::Message copy2 = msg;
  EXPECT_TRUE(copy1.body.shares_storage_with(copy2.body));
  EXPECT_TRUE(copy1.body.shares_storage_with(body));
  EXPECT_EQ(copy2.body.span().data(), body.span().data());
}

TEST(BufferPool, BodiesSurviveThePool) {
  net::SharedBytes body;
  {
    net::BufferPool pool;
    auto buf = pool.acquire();
    buf.assign(16, 3);
    body = pool.adopt(std::move(buf));
  }  // pool destroyed first
  EXPECT_EQ(body.size(), 16u);
  EXPECT_EQ(body[15], 3u);
}  // body destroyed after: frees instead of recycling — must not crash

TEST(SharedBytes, ValueSemanticsForTests) {
  const net::SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.span().size(), 0u);
  const net::SharedBytes listed = {1, 2, 3};
  EXPECT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[2], 3u);
  const net::SharedBytes zeros = net::SharedBytes::zeros(10);
  EXPECT_EQ(zeros.size(), 10u);
  EXPECT_EQ(zeros[9], 0u);
}

// --- PayloadPool ------------------------------------------------------------

TEST(PayloadPool, ReusesSlotCapacityAcrossResets) {
  core::PayloadPool pool;
  core::SparsePayload& first = pool.next();
  first.indices.assign(100, 1);
  first.values.assign(100, 2.0f);
  const std::uint32_t* index_storage = first.indices.data();
  pool.reset();
  core::SparsePayload& again = pool.next();
  EXPECT_EQ(&again, &first);           // same slot
  EXPECT_TRUE(again.indices.empty());  // cleared...
  again.indices.resize(50);
  EXPECT_EQ(again.indices.data(), index_storage);  // ...but capacity kept
}

// --- Scratch APIs: a dirty, reused output gives a fresh output's bytes -----

TEST(ScratchEquivalence, TopKGatherAndRandomIndices) {
  const auto values = random_floats(4096, 1);
  const auto other = random_floats(4096, 99);
  std::vector<std::uint32_t> reused;
  std::vector<float> gathered_reused;
  for (const std::size_t k : {std::size_t{1}, std::size_t{409}, std::size_t{4096},
                              std::size_t{9999}}) {
    std::vector<std::uint32_t> fresh;
    compress::topk_indices_into(values, k, fresh);
    compress::topk_indices_into(other, 700, reused);  // leave stale indices
    compress::topk_indices_into(values, k, reused);
    EXPECT_EQ(fresh, reused) << "k=" << k;

    std::vector<float> gathered_fresh;
    compress::gather_into(values, fresh, gathered_fresh);
    gathered_reused.assign(5000, -1.0f);
    compress::gather_into(values, fresh, gathered_reused);
    EXPECT_EQ(gathered_fresh, gathered_reused);
  }
  core::Arena arena;
  std::vector<std::uint32_t> reused_indices(3000, 7u);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    core::Arena fresh_arena;
    std::vector<std::uint32_t> fresh;
    compress::random_indices_into(4096, 1365, seed, fresh, fresh_arena);
    // Stale set flags in the recycled arena memory must not leak in.
    arena.reset();
    for (auto& flag : arena.alloc<std::uint8_t>(4096)) flag = 1;
    arena.reset();
    compress::random_indices_into(4096, 1365, seed, reused_indices, arena);
    EXPECT_EQ(fresh, reused_indices) << "seed=" << seed;
  }
}

TEST(ScratchEquivalence, EliasAndFloatCodec) {
  const auto values = random_floats(8192, 2);
  std::vector<std::uint32_t> indices;
  compress::topk_indices_into(values, 800, indices);

  compress::BitWriter fresh_gaps;
  compress::encode_index_gaps(indices, fresh_gaps);
  compress::BitWriter bits;
  compress::encode_index_gaps(
      testutil::sampled_indices(99999, 999, 3), bits);  // dirty it
  for (int round = 0; round < 3; ++round) {  // reuse across rounds
    bits.clear();
    compress::encode_index_gaps(indices, bits);
    EXPECT_EQ(fresh_gaps.bytes(), bits.bytes());
  }
  std::vector<std::uint32_t> fresh_decoded;
  compress::decode_index_gaps_into(fresh_gaps.bytes(), 800, fresh_decoded);
  std::vector<std::uint32_t> decoded(2000, 9u);
  compress::decode_index_gaps_into(fresh_gaps.bytes(), 800, decoded);
  EXPECT_EQ(fresh_decoded, decoded);

  // Values travel as a raw f32 array: decoding into a dirty, larger output
  // gives the fresh result.
  net::ByteWriter value_section;
  value_section.write_f32_array(values);
  std::vector<float> fresh_back;
  net::ByteReader(value_section.buffer()).read_f32_array_into(fresh_back);
  std::vector<float> back(10000, -3.0f);
  net::ByteReader(value_section.buffer()).read_f32_array_into(back);
  EXPECT_EQ(fresh_back, values);
  EXPECT_EQ(fresh_back, back);
}

TEST(ScratchEquivalence, QsgdQuantizer) {
  const auto values = random_floats(2048, 3);
  std::mt19937_64 rng_a(9), rng_b(9);
  compress::QuantizedVector fresh;
  compress::qsgd_quantize_into(values, 15, rng_a, fresh);
  compress::QuantizedVector scratch;
  scratch.norm = 42.0f;
  scratch.packed.assign(64, 0xAB);  // nonempty initial state must not leak in
  compress::qsgd_quantize_into(values, 15, rng_b, scratch);
  EXPECT_EQ(fresh.norm, scratch.norm);
  EXPECT_EQ(fresh.packed, scratch.packed);

  std::vector<float> fresh_deq;
  compress::qsgd_dequantize_into(fresh, fresh_deq);
  std::vector<float> deq(5000, 1.0f);
  compress::qsgd_dequantize_into(scratch, deq);
  EXPECT_EQ(fresh_deq, deq);

  net::ByteWriter fresh_ser;
  compress::qsgd_serialize_into(fresh, fresh_ser);
  net::ByteWriter writer(std::vector<std::uint8_t>(256, 0xCD));
  compress::qsgd_serialize_into(scratch, writer);
  EXPECT_EQ(fresh_ser.buffer(), writer.buffer());
  compress::QuantizedVector round_trip;
  round_trip.packed.assign(999, 0xEF);
  compress::qsgd_deserialize_into(fresh_ser.buffer(), round_trip);
  EXPECT_EQ(round_trip.packed, fresh.packed);
  EXPECT_EQ(round_trip.count, fresh.count);
}

TEST(ScratchEquivalence, DwtWorkspaceTransforms) {
  // One workspace serves every size below, so each transform after the
  // first finds it grown and holding the previous transform's samples.
  dwt::DwtWorkspace ws;
  for (const std::size_t n : {std::size_t{4097}, std::size_t{63},
                              std::size_t{1024}, std::size_t{1000}}) {
    const dwt::DwtPlan plan(dwt::sym2(), n, 4);
    const auto x = random_floats(n, static_cast<unsigned>(n));
    std::vector<float> fresh(plan.coeff_length());
    dwt::DwtWorkspace fresh_ws;
    plan.forward_into(x, fresh, fresh_ws);
    std::vector<float> coeffs(plan.coeff_length());
    for (int round = 0; round < 2; ++round) {  // workspace reuse
      plan.forward_into(x, coeffs, ws);
      EXPECT_EQ(fresh, coeffs) << "n=" << n;
    }
    std::vector<float> fresh_inv(n);
    dwt::DwtWorkspace fresh_inv_ws;
    plan.inverse_into(fresh, fresh_inv, fresh_inv_ws);
    std::vector<float> out(n, -7.0f);
    plan.inverse_into(coeffs, out, ws);
    EXPECT_EQ(fresh_inv, out) << "n=" << n;
  }
}

TEST(ScratchEquivalence, PartialAverageWithArena) {
  const std::size_t n = 2048;
  std::vector<core::SparsePayload> payloads(3);
  std::vector<core::WeightedContribution> contribs;
  for (std::size_t j = 0; j < payloads.size(); ++j) {
    payloads[j].vector_length = static_cast<std::uint32_t>(n);
    payloads[j].indices = testutil::sampled_indices(n, n / 4, j + 1);
    payloads[j].values = random_floats(n / 4, static_cast<unsigned>(j) + 10);
    contribs.push_back({0.25, &payloads[j]});
  }
  auto fresh = random_floats(n, 77);
  auto reused = fresh;
  core::Arena fresh_arena;
  core::partial_average(fresh, 0.25, contribs, fresh_arena);
  // The accumulators land on memory a previous caller filled with garbage.
  core::Arena arena;
  for (auto& v : arena.alloc<double>(4 * n)) v = 1e300;
  arena.reset();
  core::partial_average(reused, 0.25, contribs, arena);
  EXPECT_EQ(fresh, reused);
}

TEST(ScratchEquivalence, PayloadCodecRoundTrip) {
  const std::size_t n = 4096;
  const auto values = random_floats(n, 5);
  core::SparsePayload payload;
  payload.vector_length = static_cast<std::uint32_t>(n);
  compress::topk_indices_into(values, n / 8, payload.indices);
  compress::gather_into(values, payload.indices, payload.values);

  // A decode target left holding a different, larger payload.
  core::SparsePayload decoded;
  decoded.vector_length = 7;
  decoded.indices.assign(n, 3u);
  decoded.values.assign(n, 2.0f);
  core::Arena arena;
  net::ByteWriter writer;
  compress::BitWriter bits;
  for (const auto index_encoding :
       {core::IndexEncoding::kEliasGamma, core::IndexEncoding::kRaw}) {
    const core::PayloadOptions options{index_encoding,
                                       core::ValueEncoding::kRaw, 0};
    const testutil::EncodedBody fresh =
        testutil::encode_body(payload, options);

    writer.clear();  // still holding the previous encoding's capacity
    const std::size_t metadata =
        core::encode_payload_into(payload, options, writer, bits);
    EXPECT_EQ(fresh.body, writer.buffer());
    EXPECT_EQ(fresh.metadata_bytes, metadata);

    const core::SparsePayload fresh_decoded =
        testutil::decode_body(fresh.body);
    arena.reset();
    core::decode_payload_into(fresh.body, decoded, arena);
    EXPECT_EQ(fresh_decoded.vector_length, decoded.vector_length);
    EXPECT_EQ(fresh_decoded.indices, decoded.indices);
    EXPECT_EQ(fresh_decoded.values, decoded.values);
  }

  // Seed-coded payloads regenerate indices through the arena path.
  core::PayloadOptions seed_options;
  seed_options.index_encoding = core::IndexEncoding::kSeed;
  seed_options.seed = 0xFEEDu;
  core::SparsePayload seeded;
  seeded.vector_length = static_cast<std::uint32_t>(n);
  seeded.indices = testutil::sampled_indices(n, n / 8, 0xFEEDu);
  compress::gather_into(values, seeded.indices, seeded.values);
  const auto fresh = testutil::encode_body(seeded, seed_options);
  const auto fresh_decoded = testutil::decode_body(fresh.body);
  arena.reset();
  for (auto& flag : arena.alloc<std::uint8_t>(n)) flag = 1;
  arena.reset();
  core::decode_payload_into(fresh.body, decoded, arena);
  EXPECT_EQ(fresh_decoded.indices, decoded.indices);
  EXPECT_EQ(fresh_decoded.values, decoded.values);

  // Pooled make_message gives a fresh encode's bytes, also when its body
  // reuses a recycled buffer.
  net::BufferPool pool;
  {
    std::vector<std::uint8_t> stale(9000, 0xAA);
    const net::SharedBytes body = pool.adopt(std::move(stale));
  }  // last reference dropped: the stale buffer is back in the pool
  ASSERT_EQ(pool.idle_count(), 1u);
  const testutil::EncodedBody fresh_msg = testutil::encode_body(payload, {});
  const net::Message pooled_msg =
      core::make_message(3, 7, payload, {}, pool, bits);
  EXPECT_EQ(fresh_msg.metadata_bytes, pooled_msg.metadata_bytes);
  ASSERT_EQ(fresh_msg.body.size(), pooled_msg.body.size());
  const auto b = pooled_msg.body.span();
  EXPECT_TRUE(
      std::equal(fresh_msg.body.begin(), fresh_msg.body.end(), b.begin()));
}

// --- Arena-backed engine runs stay byte-identical --------------------------

sim::ExperimentResult run_fig5_like(unsigned threads) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = 5;
  cfg.local_steps = 2;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.threads = threads;
  cfg.seed = 23;
  std::mt19937 topo_rng(23);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, topo_rng)));
  return exp.run();
}

TEST(ArenaDeterminism, EngineJsonByteIdenticalAcrossThreadCounts) {
  // The whole point of the scratch design: per-lane arenas must not leak
  // any state into results. Serialize the full result to JSON (the golden
  // format test_determinism.cpp validates structurally) and compare bytes
  // across thread counts and across repeated runs.
  const auto sequential = run_fig5_like(1);
  const auto threaded = run_fig5_like(4);
  const auto threaded_again = run_fig5_like(4);
  auto to_json = [](const sim::ExperimentResult& r) {
    std::ostringstream os;
    sim::write_result_json(os, "arena/jwins", r, /*include_wall=*/false);
    return os.str();
  };
  const std::string a = to_json(sequential);
  EXPECT_EQ(a, to_json(threaded));
  EXPECT_EQ(a, to_json(threaded_again));
}

}  // namespace
}  // namespace jwins

// --- LSTM train-step allocation pin ----------------------------------------
// The LSTM arena treatment (member workspaces + in-place caches in
// nn::Lstm, rank-2 ensure_shape) took the bench's lstm_train_step from
// ~1218 allocs/op to a few dozen. Pin that reduction with a counting
// operator new, mirroring bench_micro's hook. Sanitized builds replace the
// allocator themselves, so the hook (and the test) is compiled out there —
// the plain Debug/Release CI jobs keep the pin.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JWINS_TEST_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JWINS_TEST_ALLOC_HOOK 0
#else
#define JWINS_TEST_ALLOC_HOOK 1
#endif
#else
#define JWINS_TEST_ALLOC_HOOK 1
#endif

#if JWINS_TEST_ALLOC_HOOK

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace {
std::atomic<std::uint64_t> g_test_alloc_count{0};
// Net bytes currently held through this hook (usable size, so it matches
// what the heap actually charges). test_scale.cpp's per-node memory pin
// reads it through testutil::live_heap_bytes().
std::atomic<std::int64_t> g_test_live_bytes{0};
}  // namespace

std::int64_t jwins::testutil::live_heap_bytes() noexcept {
  return g_test_live_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_test_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    g_test_live_bytes.fetch_add(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p) {
    g_test_live_bytes.fetch_sub(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace jwins {
namespace {

TEST(LstmArena, SteadyStateTrainStepAllocationBound) {
  nn::CharLstm::Config cfg;
  cfg.vocab = 30;
  cfg.embedding_dim = 12;
  cfg.hidden = 24;
  cfg.layers = 2;
  nn::CharLstm model(cfg, 1);
  nn::Sgd opt(model.parameters(), model.gradients(),
              nn::Sgd::Options{.learning_rate = 0.05f});
  nn::Batch batch;
  batch.x = tensor::Tensor({8, 16});
  batch.labels.resize(8 * 16);
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> tok(0, 29);
  for (std::size_t i = 0; i < batch.x.size(); ++i) {
    batch.x[i] = static_cast<float>(tok(rng));
    batch.labels[i] = tok(rng);
  }
  auto step = [&] {
    model.zero_grad();
    (void)model.loss_and_grad(batch);
    opt.step();
  };
  // Warm the member workspaces and caches.
  for (int i = 0; i < 3; ++i) step();
  const std::uint64_t before =
      g_test_alloc_count.load(std::memory_order_relaxed);
  constexpr int kIters = 16;
  for (int i = 0; i < kIters; ++i) step();
  const std::uint64_t per_op =
      (g_test_alloc_count.load(std::memory_order_relaxed) - before) / kIters;
  // Measured ~34/op after the rework (was ~1218). The bound leaves room for
  // the per-call return tensors the Module interface requires, but fails
  // loudly if per-timestep churn ever comes back.
  EXPECT_LE(per_op, 80u) << "LSTM train step allocation churn regressed";
}

}  // namespace
}  // namespace jwins

#else  // !JWINS_TEST_ALLOC_HOOK

std::int64_t jwins::testutil::live_heap_bytes() noexcept { return -1; }

#endif  // JWINS_TEST_ALLOC_HOOK
