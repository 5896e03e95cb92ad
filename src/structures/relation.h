#ifndef FMTK_STRUCTURES_RELATION_H_
#define FMTK_STRUCTURES_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "base/flat_hash.h"
#include "base/hash.h"

namespace fmtk {

/// A domain element. Structures use the initial segment {0, ..., n-1}.
using Element = std::uint32_t;

/// A tuple of domain elements.
using Tuple = std::vector<Element>;

/// A finite relation instance: a set of fixed-arity tuples with O(1)
/// membership tests and stable insertion-order iteration.
///
/// Storage is one flat, arity-strided row-major Element array (`flat_`):
/// no per-tuple vector, so a row costs 4·arity bytes plus its membership
/// entry. Rows are read straight from it, either as the rows() range of
/// spans or by position through TupleData().
class Relation {
 public:
  /// Per-column posting lists, built lazily on first use and maintained
  /// incrementally afterwards. Quantifier pruning in the compiled FO
  /// evaluator uses `values` to enumerate only the elements that can
  /// possibly satisfy a positive atom, and `postings` to jump from an
  /// element to the tuples containing it at that column; the Datalog
  /// fixpoint engine additionally relies on `indexed_upto` to read a
  /// consistent prefix of the index while tuples are being appended.
  struct ColumnIndex {
    /// Distinct elements occurring at the column, ascending.
    std::vector<Element> values;

    /// Bulk (CSR) part: the postings for the rows indexed by one
    /// counting-sort pass, addressed by element. Element e's row ids live at
    /// positions[offsets[e], offsets[e+1]), ascending; offsets spans
    /// [0, max element + 1], so a lookup is a bounds check and two loads.
    /// Two flat arrays total — no per-value vector, which is what makes
    /// indexing a million-edge relation allocation-free. The counting sort's
    /// span guard (max element < 4·rows + 1024) bounds offsets to
    /// 4 bytes × (4·rows + 1025); a sparser column leaves both arrays empty
    /// and indexes everything in the tail map instead. Row ids are 32-bit
    /// (the membership index already caps row counts at 2^32): half the
    /// memory traffic of size_t per probe, twice the ids per SIMD lane in
    /// the intersection kernels.
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> positions;

    /// Tail part: element -> row ids appended after the bulk build (all
    /// past the CSR rows), ascending. Relations grown purely through Add()
    /// put everything here. Flat open-addressing map: a probe is one
    /// cache-line walk, no bucket-node chase.
    FlatHashMap<Element, std::vector<std::uint32_t>> postings;

    /// Generation tag: rows [0, indexed_upto) are covered by the index.
    /// column_index() advances it to size() before returning; a caller that
    /// keeps the reference across Add()s sees a stale but well-formed index
    /// for the prefix it was synced to.
    std::size_t indexed_upto = 0;

    /// The posting list of `e` as up to two sorted pieces: the CSR slice
    /// and the tail vector (row ids past every CSR row). Concatenated they
    /// are ascending. Both empty when `e` never occurs.
    struct View {
      const std::uint32_t* bulk = nullptr;
      std::size_t bulk_size = 0;
      const std::vector<std::uint32_t>* tail = nullptr;

      bool empty() const {
        return bulk_size == 0 && (tail == nullptr || tail->empty());
      }
      std::size_t size() const {
        return bulk_size + (tail == nullptr ? 0 : tail->size());
      }
    };
    View Find(Element e) const;
  };

  explicit Relation(std::size_t arity) : arity_(arity) {}

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// Bulk construction from `rows` (arity-strided, row-major),
  /// lexicographically sorted and duplicate-free — the RelationBuilder
  /// merge output. Membership for the sorted prefix is a search over the
  /// flat store itself (no hash table to build), and every ColumnIndex
  /// is materialized eagerly by counting sort: one count pass, one
  /// exact-capacity reservation, one fill pass — instead of size() hash-map
  /// appends with growth churn. arity 0 is not expressible as flat rows;
  /// use Add.
  static Relation FromSortedRows(std::size_t arity, std::vector<Element> rows,
                                 bool build_column_indexes = true);

  /// Packed twin of FromSortedRows for arity 1 and 2: `keys` are whole rows
  /// packed into one u64 each (column-lexicographic by construction),
  /// sorted and duplicate-free — the RelationBuilder merge output before
  /// unpacking.
  static Relation FromSortedPackedRows(std::size_t arity,
                                       const std::vector<std::uint64_t>& keys,
                                       bool build_column_indexes = true);

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  /// Rows living outside the sorted prefix (hash-indexed churn tail).
  /// Callers use this to decide when a Consolidate() pays off.
  std::size_t unsorted_rows() const { return row_count_ - sorted_upto_; }

  /// Inserts `tuple`; returns false when it was already present. The row
  /// is copied into the flat store only on an actual insert, so fixpoint
  /// loops that derive mostly duplicates allocate nothing on the reject
  /// path. Arity mismatch is a fatal programming error. Column indexes are
  /// NOT rebuilt: they catch up incrementally on the next column_index() /
  /// MatchesAt() call (appended postings, merged values).
  bool Add(const Tuple& tuple);

  bool Contains(const Tuple& tuple) const {
    return tuple.size() == arity_ && ContainsRow(tuple.data());
  }

  /// Membership by raw row pointer (arity_ elements) — the flat-store
  /// counterpart of Contains for loops that never build a Tuple.
  bool ContainsRow(const Element* row) const;

  /// The row's position (the i of TupleData(i)), or kNoPosition when the
  /// row is absent. Positions hold until the next EraseRows/Consolidate.
  static constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);
  std::size_t Position(const Element* row) const;

  /// Pointer to tuple i's elements in the arity-strided flat store: the
  /// engines' inner loops read columns through this without the per-tuple
  /// vector indirection. Invalidated by Add().
  const Element* TupleData(std::size_t i) const {
    return flat_.data() + i * arity_;
  }

  /// The rows in store order (insertion order for Add-built relations), each
  /// an arity-long span over the flat store. The range covers the rows
  /// present when it was created; each span is invalidated by Add(), so a
  /// loop that inserts into the relation it walks reads by position
  /// through TupleData() instead.
  auto rows() const {
    return std::views::iota(std::size_t{0}, row_count_) |
           std::views::transform([this](std::size_t i) {
             return std::span<const Element>(TupleData(i), arity_);
           });
  }

  /// The posting-list index for `column` (< arity), synced to cover every
  /// tuple currently present (indexed_upto == size()). Built on first call,
  /// then extended incrementally — Add() never discards it, so a fixpoint
  /// loop alternating Add and probe phases pays O(new tuples) per sync, not
  /// O(all tuples). Concurrent calls are safe; the returned reference stays
  /// valid for the lifetime of the relation (contents mutate on the next
  /// sync after an Add).
  const ColumnIndex& column_index(std::size_t column) const;

  /// Indices of the tuples with `e` at `column` (empty when none), synced
  /// like column_index() and returned as one materialized ascending list
  /// (CSR slice + tail concatenated). Diagnostic/test convenience; hot
  /// loops walk ColumnIndex::Find() views instead.
  std::vector<std::size_t> MatchesAt(std::size_t column, Element e) const;

  /// Distinct elements occurring at `column`, ascending.
  const std::vector<Element>& ColumnValues(std::size_t column) const {
    return column_index(column).values;
  }

  /// Removes every row of this relation that `doomed` contains (same
  /// arity). Each doomed row is resolved to its position (stored hash
  /// value or sorted-prefix lookup), then removed by swap-with-last
  /// (fully hashed store, O(batch) total, insertion order not preserved)
  /// or by an order-preserving compaction of the gaps between doomed
  /// positions (sorted-prefix store) — either way the cost scales with the
  /// batch and the rows moved, not with a per-row predicate over the whole
  /// store. Column indexes are discarded (positions shift); the next
  /// column_index() call rebuilds them in bulk. References previously
  /// returned by column_index() and rows read before the call are
  /// invalidated. Returns the number of rows removed.
  std::size_t EraseRows(const Relation& doomed);

  /// Re-sorts the whole store so every row joins the sorted prefix and the
  /// hash maps empty out. A long-lived relation that interleaves bulk loads
  /// with Add() churn calls this at a quiet point: membership returns to
  /// the sorted-prefix lookup, and — decisively for incremental deletion —
  /// later EraseRows calls take the order-preserving path whose hash
  /// fix-ups touch only the (empty or tiny) tail map instead of a full-size
  /// one.
  /// Column indexes are discarded (positions shift) and rebuilt lazily.
  void Consolidate();

  /// Set equality (order-insensitive).
  friend bool operator==(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_ || a.row_count_ != b.row_count_) {
      return false;
    }
    for (std::size_t i = 0; i < a.row_count_; ++i) {
      if (!b.ContainsRow(a.TupleData(i))) {
        return false;
      }
    }
    return true;
  }

  /// e.g. "{(0,1), (1,2)}".
  std::string ToString() const;

 private:
  // Arity <= 2 tuples (the overwhelmingly common case: edges and unary
  // marks) pack whole into one 64-bit key, so membership skips vector
  // hashing and comparison entirely. Packed keys order exactly like the
  // rows they pack (lexicographic), which is what lets the sorted-prefix
  // binary search below compare keys instead of columns. The caller
  // guarantees arity_ <= 2 and `row` has arity_ elements.
  static std::uint64_t PackedKey(const Element* row, std::size_t arity) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < arity; ++i) {
      key = (key << 32) | row[i];
    }
    return key;
  }

  // Membership in the sorted prefix rows [0, sorted_upto_): run_starts_
  // narrows the probe to the row's column-0 run, then a binary search over
  // the flat store runs inside it. SortedPrefixFind returns the row's
  // position, or size_t(-1) on a miss.
  bool SortedPrefixContains(const Element* row) const;
  std::size_t SortedPrefixFind(const Element* row) const;

  // Recomputes run_starts_ for the current sorted prefix. Every operation
  // that moves sorted_upto_ calls it.
  void BuildRunDirectory();

  // Counting-sort materialization of every ColumnIndex (fresh relation,
  // rows [0, row_count_) only).
  void BuildColumnIndexesBulk();

  // Counting-sort build of one column's CSR part covering rows
  // [0, row_count_): count pass, prefix sums, scatter pass — the count
  // array becomes the offsets, so two flat allocations plus `values`
  // regardless of how many distinct values the column holds. Column 0 of
  // a fully sorted store skips the scatter: its positions are the
  // identity.
  void BuildColumnIndexBulk(std::size_t column, ColumnIndex* out) const;

  std::size_t arity_;
  // Authoritative arity-strided row-major store (empty for arity 0;
  // row_count_ tracks the size in rows for every arity).
  std::vector<Element> flat_;
  std::size_t row_count_ = 0;
  // Rows [0, sorted_upto_) are lexicographically sorted and unique: bulk
  // construction leaves membership to a search over them, and only rows
  // appended afterwards go through the hash maps below. 0 for Add-built
  // relations.
  std::size_t sorted_upto_ = 0;
  // Column-0 run directory of the sorted prefix, addressed by element:
  // the prefix rows whose column 0 is v are [run_starts_[v],
  // run_starts_[v+1]). Same span guard as the counting sort (max column-0
  // element < 4·sorted_upto_ + 1024); empty above it, and then the search
  // covers the whole prefix.
  std::vector<std::uint32_t> run_starts_;
  // Membership index for rows >= sorted_upto_; the value is the row's
  // position. At most one of the two maps is populated: packed_index_ for
  // arity <= 2, index_ otherwise.
  FlatU64Map<std::uint32_t> packed_index_;
  FlatHashMap<Tuple, std::uint32_t, VectorHash<Element>> index_;

  // Lazy column cache, guarded by column_mutex_ for concurrent build:
  // column_indexes_ is sized to arity_ on first use, each ColumnIndex
  // allocated once and then extended in place (generation-tagged by
  // indexed_upto), so references handed out stay stable for the relation's
  // lifetime. Copy resets it; move carries it over.
  mutable std::mutex column_mutex_;
  mutable std::vector<std::shared_ptr<ColumnIndex>> column_indexes_;
};

}  // namespace fmtk

#endif  // FMTK_STRUCTURES_RELATION_H_
