// FNV-1a 64: the digest behind every equality check on deterministic
// outputs (metrics, journal bytes, decision streams).
#pragma once

#include <cstddef>
#include <cstdint>

namespace corropt::common {

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Folds `size` bytes at `data` into `hash`.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                                         std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Folds the eight bytes of `value`, least significant first.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash,
                                         std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace corropt::common
