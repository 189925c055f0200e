// Explicit little-endian wire encoding (the ldafp_net byte order).
//
// The serving protocol fixes its byte order to little-endian regardless
// of host endianness, so frames captured on the wire read the same
// everywhere and the layout tables in DESIGN.md §12 are exact.  Writers
// append to a growable byte vector; the bounds-checked WireReader is the
// decode counterpart — every get_* checks remaining bytes and latches a
// failure instead of reading past the end, so frame decoding handles
// truncated or hostile input without undefined behaviour.  Doubles
// travel as their IEEE-754 bit pattern in a u64 (bit_cast, exact).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ldafp::support {

// -- append-to-vector writers (always little-endian) --

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16le(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_i64le(std::vector<std::uint8_t>& out, std::int64_t v);
/// IEEE-754 bit pattern as u64 — exact round trip, including -0.0,
/// infinities, and NaN payloads.
void put_f64le(std::vector<std::uint8_t>& out, double v);
void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t n);

/// Overwrites 4 bytes at `offset` (patching a length prefix after the
/// body has been appended).  `offset + 4` must be within `out`.
void patch_u32le(std::vector<std::uint8_t>& out, std::size_t offset,
                 std::uint32_t v);

// -- raw-pointer readers (caller owns bounds) --
// Inline: packing reads one u64 per feature word, and the byte loops
// compile to single loads.

inline std::uint16_t get_u16le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

inline std::uint32_t get_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

/// Bounds-checked sequential reader over a byte span.  A read past the
/// end returns 0 (or empty) and latches ok() == false; callers check
/// ok() once after a batch of reads instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Next `n` bytes as a string ("" and failure when short).
  std::string bytes(std::size_t n);
  /// Skips `n` bytes (reserved fields).
  void skip(std::size_t n);

  /// True while every read so far was in bounds.
  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

 private:
  const std::uint8_t* take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ldafp::support
