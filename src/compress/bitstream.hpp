// Bit-granular I/O used by the Elias integer codes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace jwins::compress {

/// Append-only bit sink; bits are packed MSB-first within each byte.
///
/// Hot-path reuse: clear() (or constructing from a recycled vector) keeps
/// the byte buffer's capacity, so one BitWriter per worker makes repeated
/// encodes allocation-free in steady state.
class BitWriter {
 public:
  BitWriter() = default;
  /// Adopts `storage` as the byte buffer (cleared, capacity kept).
  explicit BitWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  /// Drops all written bits but keeps the heap capacity.
  void clear() noexcept {
    bytes_.clear();
    bit_count_ = 0;
  }

  /// Appends the lowest `count` bits of `bits`, most-significant first.
  void write_bits(std::uint64_t bits, unsigned count);

  /// Appends a single bit.
  void write_bit(bool bit);

  /// Number of bits written so far.
  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Finalizes (pads the last byte with zeros) and returns the bytes.
  std::vector<std::uint8_t> finish() &&;

  /// Read-only view of the bytes written so far (last byte may be partial).
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// Sequential bit source over a byte buffer; MSB-first, mirroring BitWriter.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `count` bits (<= 64) as an unsigned value, MSB-first.
  std::uint64_t read_bits(unsigned count);

  /// Reads one bit.
  bool read_bit();

  /// Bits consumed so far.
  std::size_t position() const noexcept { return pos_; }

  /// Total bits available.
  std::size_t capacity() const noexcept { return bytes_.size() * 8; }

  bool exhausted() const noexcept { return pos_ >= capacity(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace jwins::compress
