// Byte-accurate message serialization.
//
// Traffic numbers in the paper (Table I, Figs. 4-6, 9, 10) are measured in
// bytes on the wire, so every algorithm in this reproduction serializes its
// messages to real byte buffers through this writer/reader pair; byte counts
// come from the buffers themselves, not from analytic formulas.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace jwins::net {

/// Append-only little-endian byte sink.
///
/// Hot-path reuse: construct from (or reset() with) a recycled vector — e.g.
/// one from net::BufferPool::acquire() — and the writer appends into that
/// storage's existing capacity instead of growing a fresh heap buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts `storage` as the output buffer (cleared, capacity kept).
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : buffer_(std::move(storage)) {
    buffer_.clear();
  }

  /// Drops written bytes but keeps the heap capacity for the next message.
  void clear() noexcept { buffer_.clear(); }

  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  void write_u16(std::uint16_t v) { write_raw(&v, sizeof v); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_f32(float v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  /// Length-prefixed (u32) byte blob.
  void write_bytes(std::span<const std::uint8_t> bytes);

  /// Length-prefixed (u32) float array written as raw IEEE-754 bits.
  void write_f32_array(std::span<const float> values);

  /// Length-prefixed (u32) u32 array.
  void write_u32_array(std::span<const std::uint32_t> values);

  std::size_t size() const noexcept { return buffer_.size(); }

  std::vector<std::uint8_t> take() && { return std::move(buffer_); }
  const std::vector<std::uint8_t>& buffer() const noexcept { return buffer_; }

 private:
  // resize+memcpy instead of insert(): the insert form trips GCC 12's
  // -Wstringop-overflow false positive (GCC PR 105329) at -O2, which breaks
  // -Werror builds.
  void write_raw(const void* src, std::size_t n) {
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + n);
    std::memcpy(buffer_.data() + old_size, src, n);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Sequential reader over a serialized buffer; throws on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint16_t read_u16() { return read_pod<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  /// Reads a length-prefixed blob as a view into the underlying buffer
  /// (zero-copy), valid as long as the buffer outlives the reader (message
  /// bodies do — they are refcounted net::SharedBytes).
  std::span<const std::uint8_t> view_bytes();

  /// Decode a length-prefixed array into a caller-owned vector (cleared
  /// first), so a warmed buffer makes the read allocation-free.
  void read_f32_array_into(std::vector<float>& out);
  void read_u32_array_into(std::vector<std::uint32_t>& out);

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T read_pod() {
    if (remaining() < sizeof(T)) {
      throw std::out_of_range("ByteReader: truncated message (" +
                              std::to_string(remaining()) + " bytes left, need " +
                              std::to_string(sizeof(T)) + ")");
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace jwins::net
