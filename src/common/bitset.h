// Word-backed dynamic bitset for dense per-entity flags.
//
// The path counter, the optimizer and the voting detection backend keep
// one bit per link or switch and test membership millions of times per
// run; std::vector<char> wastes 8x the cache footprint. This bitset
// stores 64 flags per word and exposes exactly the operations those hot
// paths need: set/reset/test, in-place union, and the raw words for
// word-at-a-time walks. (The optimizer's accept and reject caches key on
// 32-bit masks over a segment's candidates, not on this type.)
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace corropt::common {

class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  DynamicBitset() = default;
  // All bits start clear.
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_(word_count(bits), 0) {}

  // Resizes to `bits` and clears everything (mirrors vector::assign).
  void assign(std::size_t bits) {
    bits_ = bits;
    words_.assign(word_count(bits), 0);
  }

  // Appends one bit (used by incremental topology construction).
  void push_back(bool value) {
    if (bits_ % kWordBits == 0) words_.push_back(0);
    ++bits_;
    if (value) set(bits_ - 1);
  }

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] bool empty() const { return bits_ == 0; }

  void set(std::size_t i) {
    assert(i < bits_);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }
  void reset(std::size_t i) {
    assert(i < bits_);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }
  void set(std::size_t i, bool value) { value ? set(i) : reset(i); }
  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < bits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & Word{1};
  }

  // In-place union; sizes must match.
  DynamicBitset& operator|=(const DynamicBitset& other) {
    assert(bits_ == other.bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
    return *this;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

  [[nodiscard]] std::span<const Word> words() const { return words_; }
  // Raw word access for a checkpoint restore, which must leave the bits
  // past size() clear.
  [[nodiscard]] std::span<Word> words() { return words_; }

 private:
  static std::size_t word_count(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  std::size_t bits_ = 0;
  std::vector<Word> words_;
};

}  // namespace corropt::common
