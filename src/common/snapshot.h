// Compact binary codec for simulation checkpoints (DESIGN.md §14).
//
// Every stateful layer of the simulator serializes itself through this
// pair of cursors. The format is deliberately simple and fully
// deterministic: varint-coded unsigned integers (LEB128), zigzag-coded
// signed integers, raw little-endian IEEE-754 doubles (bit-exact round
// trips — metric scalars must survive snapshot/restore byte-identically),
// and length-prefixed strings/blobs. There is no schema evolution
// machinery beyond per-section tags and versions: a checkpoint is a
// same-build artifact (branch runners restore what they just wrote), so
// a tag or version mismatch is a hard error, not a migration point.
//
// Sections: each class opens its slice with `section(tag, version)`;
// the reader's `expect_section(tag)` validates the tag and returns the
// version. Nested, independently decodable payloads (e.g. a detection
// backend's private state, which a branch with a different backend kind
// reads as a blob and then ignores) are written as `blob()`s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace corropt::common::snap {

// Thrown (as std::runtime_error) on any malformed read: truncation, tag
// or version mismatch, or a guard value that does not match the live
// object the state is being restored into.
[[noreturn]] void fail(const std::string& what);

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  // Unsigned LEB128.
  void u64(std::uint64_t v);
  void u32(std::uint32_t v) { u64(v); }
  // Zigzag + LEB128.
  void i64(std::int64_t v);
  // Raw little-endian IEEE-754 bits; round trips are bit-exact.
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  // Length-prefixed opaque payload (a nested Writer's take()).
  void blob(std::string_view bytes) { str(bytes); }

  void section(std::uint32_t tag, std::uint16_t version) {
    u64(tag);
    u64(version);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint64_t u64();
  std::uint32_t u32();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  // Element count of a length-prefixed sequence. Every element takes at
  // least one byte, so a count above remaining() is malformed and fails
  // here instead of turning into an unbounded allocation.
  std::size_t length();
  std::string_view str();
  std::string_view blob() { return str(); }

  // Validates the tag and returns the section version.
  std::uint16_t expect_section(std::uint32_t tag);

  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Four-character section tags, spelled out so hexdumps of a checkpoint
// are self-describing.
[[nodiscard]] constexpr std::uint32_t tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

}  // namespace corropt::common::snap
