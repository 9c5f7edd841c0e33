#include "common/snapshot.h"

#include <bit>
#include <stdexcept>

namespace corropt::common::snap {

void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

void Writer::u64(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void Writer::i64(std::int64_t v) {
  // Zigzag: small magnitudes of either sign stay short.
  const auto u = static_cast<std::uint64_t>(v);
  u64((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void Writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s.data(), s.size());
}

std::uint8_t Reader::u8() {
  if (pos_ >= bytes_.size()) fail("truncated (u8)");
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= bytes_.size()) fail("truncated (u64)");
    const auto byte = static_cast<std::uint8_t>(bytes_[pos_++]);
    if (shift >= 64) fail("varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint32_t Reader::u32() {
  const std::uint64_t v = u64();
  if (v > 0xFFFFFFFFULL) fail("u32 out of range");
  return static_cast<std::uint32_t>(v);
}

std::int64_t Reader::i64() {
  const std::uint64_t u = u64();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double Reader::f64() {
  if (bytes_.size() - pos_ < 8) fail("truncated (f64)");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  return std::bit_cast<double>(bits);
}

std::size_t Reader::length() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("length prefix exceeds the remaining bytes");
  return static_cast<std::size_t>(n);
}

std::string_view Reader::str() {
  const std::uint64_t n = u64();
  if (bytes_.size() - pos_ < n) fail("truncated (str)");
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint16_t Reader::expect_section(std::uint32_t tag) {
  const std::uint64_t got = u64();
  if (got != tag) {
    std::string name(4, '?');
    for (int i = 0; i < 4; ++i) {
      const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
      name[static_cast<std::size_t>(i)] = c;
    }
    fail("section tag mismatch (expected '" + name + "')");
  }
  const std::uint64_t version = u64();
  if (version > 0xFFFF) fail("section version out of range");
  return static_cast<std::uint16_t>(version);
}

}  // namespace corropt::common::snap
