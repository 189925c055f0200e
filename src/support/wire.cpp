#include "support/wire.h"

#include <cstring>

#include "support/error.h"

namespace ldafp::support {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_i64le(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64le(out, static_cast<std::uint64_t>(v));
}

void put_f64le(std::vector<std::uint8_t>& out, double v) {
  put_u64le(out, std::bit_cast<std::uint64_t>(v));
}

void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + n);
}

void patch_u32le(std::vector<std::uint8_t>& out, std::size_t offset,
                 std::uint32_t v) {
  LDAFP_CHECK(offset + 4 <= out.size(), "patch_u32le out of range");
  for (int i = 0; i < 4; ++i) {
    out[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

const std::uint8_t* WireReader::take(std::size_t n) {
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() {
  const std::uint8_t* p = take(1);
  return p != nullptr ? p[0] : 0;
}

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = take(2);
  return p != nullptr ? get_u16le(p) : 0;
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = take(4);
  return p != nullptr ? get_u32le(p) : 0;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = take(8);
  return p != nullptr ? get_u64le(p) : 0;
}

std::string WireReader::bytes(std::size_t n) {
  const std::uint8_t* p = take(n);
  if (p == nullptr) return {};
  return std::string(reinterpret_cast<const char*>(p), n);
}

void WireReader::skip(std::size_t n) { take(n); }

}  // namespace ldafp::support
