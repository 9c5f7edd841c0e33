// Compact binary codec for simulation checkpoints (DESIGN.md §14).
//
// Every stateful layer of the simulator lists its fields once, in one
// templated body `walk(self, codec)` that both cursors run. `Writer` and
// `Reader` expose the same verbs, the writer's emitting from const
// references and the reader's filling mutable ones, so a field is
// written and read in the same order by construction:
//   u8/u64/u32/i64/f64/boolean/str/id  scalars (u8 also takes enums);
//   section(tag, version, name)  tag + version; the reader fails on a
//       different tag or version;
//   guard(size, what)  the live size of a fixed-size run; the reader
//       fails on a different one;
//   seq(vector, each) / ids(vector)  length-prefixed sequences, sized
//       through the bounded Reader::length();
//   entries(map, each)  a map's entries in ascending key order
//       (unordered maps are sorted first);
//   object(part)  a component's own snapshot_to/restore_from;
//   check(ok, what)  a condition restored state must meet.
// `Codec::kReading` marks the few places where the two directions really
// differ (an index rebuilt after a restore, state gathered from outside).
//
// The encoding is deliberately simple and fully deterministic: LEB128
// varints for unsigned integers, zigzag for signed ones, raw
// little-endian IEEE-754 bits for doubles (bit-exact round trips), and
// length-prefixed strings/blobs. A checkpoint is a same-build artifact
// (branch runners restore what they just wrote), so any mismatch is a
// hard error, not a migration point. A whole checkpoint is sealed once
// with an 8-byte FNV-1a trailer over every preceding byte (`seal`), which
// `unseal` verifies before any section is decoded. The same fold over a
// Writer's bytes is the identity digest of every run output
// (sim::digest, obs::digest): a field is compared exactly when it is
// checkpointed.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ids.h"

namespace corropt::common::snap {

// Thrown (as std::runtime_error) on any malformed read: truncation, tag
// or version mismatch, a checksum mismatch, or a guard value that does
// not match the live object the state is being restored into.
[[noreturn]] void fail(const std::string& what);

inline constexpr std::size_t kTrailerBytes = 8;
// FNV-1a 64 of `bytes`: the trailer `seal` appends.
[[nodiscard]] std::uint64_t digest(std::string_view bytes);
// Appends the FNV-1a 64 digest of `bytes`, least significant byte first.
void seal(std::string& bytes);
// Verifies the trailer and returns the bytes it covers.
[[nodiscard]] std::string_view unseal(std::string_view bytes);

class Writer {
 public:
  static constexpr bool kReading = false;

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  template <class E>
    requires std::is_enum_v<E>
  void u8(E v) {
    u8(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v);
  void u32(std::uint32_t v) { u64(v); }
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  // Length-prefixed opaque payload (a nested Writer's take()).
  void blob(std::string_view bytes) { str(bytes); }
  template <class Tag>
  void id(Id<Tag> v) {
    u32(v.value());
  }

  void section(std::uint32_t tag, std::uint16_t version,
               std::string_view /*name*/) {
    u64(tag);
    u64(version);
  }
  void guard(std::uint64_t live, std::string_view /*what*/) { u64(live); }
  void check(bool /*ok*/, std::string_view /*what*/) {}

  template <class T, class F>
  void seq(const std::vector<T>& v, F&& each) {
    u64(v.size());
    for (const T& e : v) each(e);
  }
  template <class Tag>
  void ids(const std::vector<Id<Tag>>& v) {
    seq(v, [this](Id<Tag> x) { id(x); });
  }
  template <class Map, class F>
  void entries(const Map& m, F&& each) {
    u64(m.size());
    if constexpr (requires { typename Map::key_compare; }) {
      for (const auto& [key, value] : m) each(key, value);
    } else {
      std::vector<const typename Map::value_type*> sorted;
      sorted.reserve(m.size());
      for (const auto& entry : m) sorted.push_back(&entry);
      std::sort(sorted.begin(), sorted.end(),
                [](auto* a, auto* b) { return a->first < b->first; });
      for (const auto* entry : sorted) each(entry->first, entry->second);
    }
  }
  template <class T>
  void object(const T& part) {
    part.snapshot_to(*this);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint64_t u64();
  std::uint32_t u32();
  std::int64_t i64();
  double f64();
  bool boolean();
  // Element count of a length-prefixed sequence. Every element takes at
  // least one byte, so a count above remaining() is malformed and fails
  // here instead of turning into an unbounded allocation.
  std::size_t length();
  std::string_view str();
  std::string_view blob() { return str(); }

  // The Writer's verbs. Integers that do not fit the field fail.
  template <class T>
    requires std::same_as<T, std::uint8_t> || std::same_as<T, char> ||
             std::is_enum_v<T>
  void u8(T& v) {
    v = static_cast<T>(u8());
  }
  template <std::unsigned_integral T>
  void u64(T& v) {
    const std::uint64_t x = u64();
    if (x > std::numeric_limits<T>::max()) fail("unsigned value out of range");
    v = static_cast<T>(x);
  }
  template <std::signed_integral T>
  void i64(T& v) {
    const std::int64_t x = i64();
    if (x < std::numeric_limits<T>::min() ||
        x > std::numeric_limits<T>::max()) {
      fail("signed value out of range");
    }
    v = static_cast<T>(x);
  }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& s) { s.assign(str()); }
  template <class Tag>
  void id(Id<Tag>& v) {
    v = Id<Tag>(u32());
  }

  void section(std::uint32_t tag, std::uint16_t version,
               std::string_view name);
  void guard(std::uint64_t live, std::string_view what);
  void check(bool ok, std::string_view what) {
    if (!ok) fail(std::string(what));
  }

  template <class T, class F>
  void seq(std::vector<T>& v, F&& each) {
    v.assign(length(), T{});
    for (T& e : v) each(e);
  }
  template <class Tag>
  void ids(std::vector<Id<Tag>>& v) {
    seq(v, [this](Id<Tag>& x) { id(x); });
  }
  template <class Map, class F>
  void entries(Map& m, F&& each) {
    m.clear();
    for (std::size_t n = length(); n > 0; --n) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      each(key, value);
      if (!m.emplace(key, std::move(value)).second) fail("duplicate map key");
    }
  }
  template <class T>
  void object(T& part) {
    part.restore_from(*this);
  }

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
