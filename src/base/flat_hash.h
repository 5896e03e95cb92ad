#ifndef FMTK_BASE_FLAT_HASH_H_
#define FMTK_BASE_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/hash.h"

namespace fmtk {

/// Default hasher for FlatHashMap: integers and enums pass through raw —
/// the map finalizes every user hash with Mix64 anyway (see MixedHash), so
/// pre-mixing them would pay the avalanche twice per probe. Everything else
/// goes through std::hash. Vector-like keys pass VectorHash explicitly.
template <typename K>
struct FlatDefaultHash {
  std::size_t operator()(const K& key) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return static_cast<std::size_t>(key);
    } else {
      return ScalarHash(key);
    }
  }
};

/// Open-addressing hash map with linear probing and backward-shift erase
/// (no tombstones). Keys, values, and their hashes live in flat parallel
/// arrays, so a probe is a cache-line walk instead of the pointer chase a
/// node-based unordered_map pays per lookup. Capacity is a power of two;
/// the stored 64-bit hash is compared before the key, so a miss almost
/// never touches key memory.
///
/// Engines use this for transposition tables (u64 keys), posting-list maps
/// (Element keys), and canonical-code interning (vector keys + VectorHash).
///
/// Invalidation: any insert may rehash, moving every entry — pointers and
/// references returned by Find/TryEmplace/operator[] are invalidated by the
/// next insert (unlike unordered_map, whose nodes are stable). Erase only
/// shifts entries within the table; it also invalidates pointers.
template <typename K, typename V, typename Hash = FlatDefaultHash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    hashes_.clear();
    used_.clear();
    size_ = 0;
    mask_ = 0;
  }

  /// Pre-sizes the table for at least `n` entries without rehashing.
  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) {  // keep load factor <= 0.75
      cap <<= 1;
    }
    if (cap > Capacity()) {
      Rehash(cap);
    }
  }

  V* Find(const K& key) {
    const std::size_t i = FindSlot(key, MixedHash(key));
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  const V* Find(const K& key) const {
    const std::size_t i = FindSlot(key, MixedHash(key));
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  bool Contains(const K& key) const {
    return FindSlot(key, MixedHash(key)) != kNotFound;
  }

  /// Heterogeneous lookup: the entry whose key satisfies `matches(key)`,
  /// where `hash` is what Hash returns for that key. Probes with a key the
  /// caller never builds, e.g. a relation row hashed by VectorHash::Hash
  /// against vector keys.
  template <typename Matches>
  const V* Find(std::size_t hash, Matches&& matches) const {
    if (size_ == 0) {
      return nullptr;
    }
    const std::uint64_t h = Mix64(static_cast<std::uint64_t>(hash));
    for (std::size_t i = static_cast<std::size_t>(h) & mask_; used_[i];
         i = (i + 1) & mask_) {
      if (hashes_[i] == h && matches(slots_[i].key)) {
        return &slots_[i].value;
      }
    }
    return nullptr;
  }

  /// Inserts {key, V(args...)} if absent. Returns {pointer to the value,
  /// true if inserted}. The pointer is valid until the next insert.
  template <typename KeyArg, typename... Args>
  std::pair<V*, bool> TryEmplace(KeyArg&& key, Args&&... args) {
    const std::uint64_t h = MixedHash(key);
    std::size_t i = FindSlot(key, h);
    if (i != kNotFound) {
      return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 4 > Capacity() * 3) {
      Rehash(Capacity() == 0 ? kMinCapacity : Capacity() * 2);
    }
    i = FreeSlot(h);
    slots_[i].key = K(std::forward<KeyArg>(key));
    slots_[i].value = V(std::forward<Args>(args)...);
    hashes_[i] = h;
    used_[i] = 1;
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](const K& key) { return *TryEmplace(key).first; }

  /// Removes `key` if present, backward-shifting the displaced cluster so
  /// probe chains stay dense (no tombstones). Returns true if removed.
  bool Erase(const K& key) {
    std::size_t i = FindSlot(key, MixedHash(key));
    if (i == kNotFound) {
      return false;
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (!used_[j]) {
        break;
      }
      const std::size_t home = static_cast<std::size_t>(hashes_[j]) & mask_;
      // Entry j may fill the hole at i only if i lies within its probe
      // chain, i.e. the cyclic distance home→j covers i.
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        hashes_[i] = hashes_[j];
        i = j;
      }
    }
    used_[i] = 0;
    slots_[i] = Slot();
    --size_;
    return true;
  }

  /// Calls fn(const K&, V&) / fn(const K&, const V&) for every entry, in
  /// unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) {
        fn(const_cast<const K&>(slots_[i].key), slots_[i].value);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  std::size_t Capacity() const { return used_.size(); }

  std::uint64_t MixedHash(const K& key) const {
    // One extra finalizer round guarantees well-spread low bits no matter
    // what the user hasher emits (open addressing indexes with hash & mask).
    return Mix64(static_cast<std::uint64_t>(hash_(key)));
  }

  std::size_t FindSlot(const K& key, std::uint64_t h) const {
    if (size_ == 0) {
      return kNotFound;
    }
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (used_[i]) {
      if (hashes_[i] == h && eq_(slots_[i].key, key)) {
        return i;
      }
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  std::size_t FreeSlot(std::uint64_t h) const {
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (used_[i]) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(std::size_t new_capacity) {
    FMTK_CHECK((new_capacity & (new_capacity - 1)) == 0)
        << "capacity must be a power of two";
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_ = std::vector<Slot>(new_capacity);
    hashes_.assign(new_capacity, 0);
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i]) {
        const std::size_t j = FreeSlot(old_hashes[i]);
        slots_[j] = std::move(old_slots[i]);
        hashes_[j] = old_hashes[i];
        used_[j] = 1;
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  [[no_unique_address]] Hash hash_{};
  [[no_unique_address]] Eq eq_{};
};

/// Flat map with pre-mixed or integer 64-bit keys — the transposition-table
/// and posting-list shape.
template <typename V>
using FlatU64Map = FlatHashMap<std::uint64_t, V>;

}  // namespace fmtk

#endif  // FMTK_BASE_FLAT_HASH_H_
