#ifndef FMTK_BASE_HASH_H_
#define FMTK_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace fmtk {

/// splitmix64 finalizer: a full-avalanche 64-bit mixer. Every bit of the
/// input affects every bit of the output, so sequential keys (libstdc++'s
/// std::hash<int> is the identity) land in unrelated buckets.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hashes a single value: integers and enums go through Mix64 (std::hash is
/// the identity for them on libstdc++, which clusters sequential element
/// IDs); everything else defers to std::hash.
template <typename T>
std::size_t ScalarHash(const T& value) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return static_cast<std::size_t>(
        Mix64(static_cast<std::uint64_t>(value)));
  } else {
    return std::hash<T>{}(value);
  }
}

/// Mixes `value` into `seed` (boost::hash_combine's shape). Integers are
/// diffused with one odd-constant multiply — enough to spread sequential
/// IDs across the combine, while full avalanche is deferred to the final
/// Mix64 the vector/pair hashers (and FlatHashMap internally) apply. This
/// keeps the per-element cost of hashing a tuple at one multiply instead of
/// a full finalizer.
template <typename T>
void HashCombine(std::size_t& seed, const T& value) {
  std::size_t h;
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    h = static_cast<std::size_t>(static_cast<std::uint64_t>(value) *
                                 0x9e3779b97f4a7c15ULL);
  } else {
    h = std::hash<T>{}(value);
  }
  seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a vector of hashable elements; usable as an unordered_map hasher.
/// The combined seed is finalized with Mix64 so sequential contents land in
/// unrelated buckets in both the high and low bits.
template <typename T>
struct VectorHash {
  std::size_t operator()(const std::vector<T>& v) const { return Hash(v); }

  /// The same hash over any contiguous run, e.g. a relation row.
  static std::size_t Hash(std::span<const T> v) {
    std::size_t seed = v.size();
    for (const T& x : v) {
      HashCombine(seed, x);
    }
    return static_cast<std::size_t>(Mix64(seed));
  }
};

/// Hashes a pair of hashable elements; finalized like VectorHash.
template <typename A, typename B>
struct PairHash {
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t seed = 0;
    HashCombine(seed, p.first);
    HashCombine(seed, p.second);
    return static_cast<std::size_t>(Mix64(seed));
  }
};

}  // namespace fmtk

#endif  // FMTK_BASE_HASH_H_
