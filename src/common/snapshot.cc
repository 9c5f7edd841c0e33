#include "common/snapshot.h"

#include <bit>
#include <stdexcept>

#include "common/hash.h"

namespace corropt::common::snap {

namespace {

// Eight raw bytes, least significant first: doubles and the trailer.
void append_le64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint64_t load_le64(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(bytes[i])} << (8 * i);
  }
  return v;
}

}  // namespace

void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

std::uint64_t digest(std::string_view bytes) {
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

void seal(std::string& bytes) { append_le64(bytes, digest(bytes)); }

std::string_view unseal(std::string_view bytes) {
  if (bytes.size() < kTrailerBytes) fail("truncated (checksum trailer)");
  const std::string_view body = bytes.substr(0, bytes.size() - kTrailerBytes);
  if (load_le64(bytes.substr(body.size())) != digest(body)) {
    fail("checksum mismatch");
  }
  return body;
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
  append_le64(out_, std::bit_cast<std::uint64_t>(v));
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

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("boolean out of range");
  return v != 0;
}

std::int64_t Reader::i64() {
  const std::uint64_t u = u64();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double Reader::f64() {
  if (remaining() < 8) fail("truncated (f64)");
  const std::uint64_t bits = load_le64(bytes_.substr(pos_));
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

void Reader::section(std::uint32_t tag, std::uint16_t version,
                     std::string_view name) {
  if (u64() != tag) fail(std::string(name) + " section tag mismatch");
  if (u64() != version) fail(std::string(name) + " section version mismatch");
}

void Reader::guard(std::uint64_t live, std::string_view what) {
  if (u64() != live) fail(std::string(what) + " mismatch");
}

}  // namespace corropt::common::snap
