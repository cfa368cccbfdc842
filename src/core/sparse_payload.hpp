// Wire format for sparse (and dense) model-vector exchange — the single
// serialization point between the algorithms (algo/) and the simulated
// network (net/).
//
// In the JWINS pipeline this is the step between selection and transport:
// the ranker (core/ranker.hpp) and randomized cut-off (core/cutoff.hpp)
// choose which wavelet coefficients to share, encode_payload_into() turns
// that (indices, values) pair into bytes — Elias-gamma gap-coded indices
// (compress/elias.hpp) plus raw f32 values — and the receiver's
// decode_payload_into() feeds partial averaging (core/averaging.hpp). All
// algorithms in the reproduction (JWINS, CHOCO, random sampling,
// full-sharing and the ablations) serialize their model payloads through
// this one codec so byte accounting is uniform, as the paper applies
// Fpzip+Elias uniformly across algorithms. Values are sent raw: the paper's
// lossless Fpzip pass is not reproduced, since an XOR-predictive stand-in
// for it made every message ~6% larger (docs/DESIGN.md). The index
// switch doubles as the Figure-9 ablation (raw vs Elias-gamma metadata).
//
// Layout: [index_mode u8][value_mode u8][vector_len u32][count u32]
//         [index section][value section = u32 count + count raw f32]
// Everything before the value section counts as metadata_bytes. The
// value-mode byte is always ValueEncoding::kRaw; the decoder rejects any
// other tag, so a future value codec can take a new tag.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hpp"
#include "core/arena.hpp"
#include "net/network.hpp"

namespace jwins::net {
class ByteWriter;
}

namespace jwins::core {

enum class IndexEncoding : std::uint8_t {
  kDense = 0,       ///< count == vector_len; indices implicit
  kEliasGamma = 1,  ///< gap array, Elias-gamma coded (JWINS default)
  kRaw = 2,         ///< 4 bytes per index (Figure-9 "no compression" arm)
  kSeed = 3,        ///< 8-byte PRNG seed (random-sampling baseline)
};

/// The value section's format. Tag 0 (a retired XOR codec) is rejected.
enum class ValueEncoding : std::uint8_t {
  kRaw = 1,  ///< 4 bytes per value
};

struct SparsePayload {
  std::uint32_t vector_length = 0;
  std::vector<std::uint32_t> indices;  ///< ascending; empty when dense
  std::vector<float> values;           ///< aligned with indices (or dense)

  /// Dense means "no indices and one value per element". A sparse payload
  /// with zero entries is not dense: it is a valid contribution that
  /// touches nothing.
  bool dense() const noexcept {
    return indices.empty() && values.size() == vector_length;
  }
};

/// Non-owning view of a payload — what the zero-copy encoder consumes. A
/// sender points this at whatever already holds the data (node members,
/// arena spans) instead of copying indices/values into a SparsePayload
/// first. Converts implicitly from SparsePayload.
struct PayloadView {
  std::uint32_t vector_length = 0;
  std::span<const std::uint32_t> indices;
  std::span<const float> values;

  PayloadView() = default;
  PayloadView(std::uint32_t length, std::span<const std::uint32_t> idx,
              std::span<const float> vals)
      : vector_length(length), indices(idx), values(vals) {}
  PayloadView(const SparsePayload& p)  // NOLINT(google-explicit-*)
      : vector_length(p.vector_length), indices(p.indices), values(p.values) {}

  /// Same rule as SparsePayload::dense().
  bool dense() const noexcept {
    return indices.empty() && values.size() == vector_length;
  }
};

struct PayloadOptions {
  IndexEncoding index_encoding = IndexEncoding::kEliasGamma;
  ValueEncoding value_encoding = ValueEncoding::kRaw;
  std::uint64_t seed = 0;  ///< required for IndexEncoding::kSeed
};

/// Serializes `payload` by appending to `writer` (point the writer at a
/// pooled send buffer for an allocation-free hot path). For kDense,
/// `payload.indices` must be empty and values.size() == vector_length. For
/// kSeed, the receiver regenerates the index set from (seed, count,
/// vector_length). `bit_scratch` is cleared and reused for the Elias-gamma
/// index section. Returns the metadata byte count (bytes written before the
/// value section).
std::size_t encode_payload_into(const PayloadView& payload,
                                const PayloadOptions& options,
                                net::ByteWriter& writer,
                                compress::BitWriter& bit_scratch);

/// Parses a payload produced by encode_payload_into. Throws
/// std::runtime_error on an unknown index or value mode tag, before reading
/// any section. For kSeed the index set is regenerated, so the result always
/// carries explicit indices unless dense. The Elias-gamma section is read as
/// a view into `body` (no blob copy) and results land in `out`'s reused
/// buffers; `arena` backs the kSeed membership flags.
void decode_payload_into(std::span<const std::uint8_t> body,
                         SparsePayload& out, Arena& arena);

/// Wraps an encoded payload into a network message. Encodes into a buffer
/// from `pool`, so the message body storage is recycled round over round
/// and fan-out to d neighbors shares one refcounted buffer instead of d
/// copies.
net::Message make_message(std::uint32_t sender, std::uint32_t round,
                          const PayloadView& payload,
                          const PayloadOptions& options, net::BufferPool& pool,
                          compress::BitWriter& bit_scratch);

}  // namespace jwins::core
