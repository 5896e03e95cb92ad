#include "structures/relation.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "base/check.h"
#include "structures/packed_rows.h"

namespace fmtk {
namespace {

// Element-addressed arrays (CSR offsets, the sorted-prefix run directory)
// are dense over [0, span). Structure elements are always an initial
// segment of the naturals, so this holds for every relation an engine
// builds; a pathological sparse one (span far above its row count) takes
// the hash/binary-search fallback rather than allocating a huge array.
bool DenseSpanFits(std::size_t span, std::size_t rows) {
  return span <= 4 * rows + 1024;
}

// Looks `row` (arity elements) up in a vector-keyed membership index
// without copying it into a probe key. Cold: rows wider than two elements
// are the rare case, so the probe stays out of the hot text (ContainsRow
// and Position keep their arity <= 2 path compact).
[[gnu::cold]] const std::uint32_t* FindWideRow(
    const FlatHashMap<Tuple, std::uint32_t, VectorHash<Element>>& index,
    const Element* row, std::size_t arity) {
  return index.Find(VectorHash<Element>::Hash({row, arity}),
                    [row](const Tuple& key) {
                      return std::equal(key.begin(), key.end(), row);
                    });
}

}  // namespace

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      flat_(other.flat_),
      row_count_(other.row_count_),
      sorted_upto_(other.sorted_upto_),
      run_starts_(other.run_starts_),
      packed_index_(other.packed_index_),
      index_(other.index_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    arity_ = other.arity_;
    flat_ = other.flat_;
    row_count_ = other.row_count_;
    sorted_upto_ = other.sorted_upto_;
    run_starts_ = other.run_starts_;
    packed_index_ = other.packed_index_;
    index_ = other.index_;
    std::lock_guard<std::mutex> lock(column_mutex_);
    column_indexes_.clear();
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      flat_(std::move(other.flat_)),
      row_count_(other.row_count_),
      sorted_upto_(other.sorted_upto_),
      run_starts_(std::move(other.run_starts_)),
      packed_index_(std::move(other.packed_index_)),
      index_(std::move(other.index_)),
      column_indexes_(std::move(other.column_indexes_)) {
  other.row_count_ = 0;
  other.sorted_upto_ = 0;
  other.run_starts_.clear();
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    arity_ = other.arity_;
    flat_ = std::move(other.flat_);
    row_count_ = other.row_count_;
    sorted_upto_ = other.sorted_upto_;
    run_starts_ = std::move(other.run_starts_);
    packed_index_ = std::move(other.packed_index_);
    index_ = std::move(other.index_);
    other.row_count_ = 0;
    other.sorted_upto_ = 0;
    other.run_starts_.clear();
    std::lock_guard<std::mutex> lock(column_mutex_);
    column_indexes_ = std::move(other.column_indexes_);
  }
  return *this;
}

Relation Relation::FromSortedRows(std::size_t arity, std::vector<Element> rows,
                                  bool build_column_indexes) {
  FMTK_CHECK(arity > 0) << "bulk construction needs positive arity";
  FMTK_CHECK(rows.size() % arity == 0)
      << "flat row data of " << rows.size() << " elements for arity " << arity;
  Relation r(arity);
  r.flat_ = std::move(rows);
  r.row_count_ = r.flat_.size() / arity;
  r.sorted_upto_ = r.row_count_;
  r.BuildRunDirectory();
  if (build_column_indexes) {
    r.BuildColumnIndexesBulk();
  }
  return r;
}

Relation Relation::FromSortedPackedRows(std::size_t arity,
                                        const std::vector<std::uint64_t>& keys,
                                        bool build_column_indexes) {
  FMTK_CHECK(arity == 1 || arity == 2)
      << "packed rows hold at most two 32-bit columns, got arity " << arity;
  Relation r(arity);
  r.flat_.resize(keys.size() * arity);
  r.row_count_ = keys.size();
  r.sorted_upto_ = keys.size();
  Element* dst = r.flat_.data();
  for (const std::uint64_t key : keys) {
    if (arity == 2) {
      *dst++ = static_cast<Element>(key >> 32);
    }
    *dst++ = static_cast<Element>(key);
  }
  r.BuildRunDirectory();
  if (build_column_indexes) {
    r.BuildColumnIndexesBulk();
  }
  return r;
}

void Relation::BuildRunDirectory() {
  run_starts_.clear();
  if (sorted_upto_ == 0) {
    return;
  }
  // The prefix is sorted, so its last row holds the largest column-0 value.
  const std::size_t span =
      static_cast<std::size_t>(flat_[(sorted_upto_ - 1) * arity_]) + 1;
  if (!DenseSpanFits(span, sorted_upto_)) {
    return;
  }
  run_starts_.resize(span + 1);
  std::size_t row = 0;
  for (std::size_t v = 0; v <= span; ++v) {
    while (row < sorted_upto_ && flat_[row * arity_] < v) {
      ++row;
    }
    run_starts_[v] = static_cast<std::uint32_t>(row);
  }
}

std::size_t Relation::SortedPrefixFind(const Element* row) const {
  constexpr std::size_t kMiss = static_cast<std::size_t>(-1);
  std::size_t lo = 0;
  std::size_t hi = sorted_upto_;
  if (!run_starts_.empty()) {
    const std::size_t v = row[0];
    if (v + 1 >= run_starts_.size()) {
      return kMiss;
    }
    lo = run_starts_[v];
    hi = run_starts_[v + 1];
    if (arity_ == 1) {
      return lo < hi ? lo : kMiss;  // Unique rows: the run is the row.
    }
  }
  const std::size_t end = hi;
  if (arity_ <= 2) {
    const std::uint64_t key = PackedKey(row, arity_);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (PackedKey(flat_.data() + mid * arity_, arity_) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < end && PackedKey(flat_.data() + lo * arity_, arity_) == key
               ? lo
               : kMiss;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const Element* at = flat_.data() + mid * arity_;
    if (std::lexicographical_compare(at, at + arity_, row, row + arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < end && std::equal(row, row + arity_, flat_.data() + lo * arity_)
             ? lo
             : kMiss;
}

bool Relation::SortedPrefixContains(const Element* row) const {
  return SortedPrefixFind(row) != static_cast<std::size_t>(-1);
}

bool Relation::ContainsRow(const Element* row) const {
  if (sorted_upto_ > 0 && SortedPrefixContains(row)) {
    return true;
  }
  if (arity_ <= 2) {
    return packed_index_.Contains(PackedKey(row, arity_));
  }
  return FindWideRow(index_, row, arity_) != nullptr;
}

std::size_t Relation::Position(const Element* row) const {
  if (sorted_upto_ > 0) {
    const std::size_t pos = SortedPrefixFind(row);
    if (pos != kNoPosition) {
      return pos;
    }
  }
  const std::uint32_t* pos =
      arity_ <= 2 ? packed_index_.Find(PackedKey(row, arity_))
                  : FindWideRow(index_, row, arity_);
  return pos == nullptr ? kNoPosition : *pos;
}

bool Relation::Add(const Tuple& tuple) {
  FMTK_CHECK(tuple.size() == arity_)
      << "tuple of size " << tuple.size() << " added to relation of arity "
      << arity_;
  if (sorted_upto_ > 0 && SortedPrefixContains(tuple.data())) {
    return false;
  }
  const auto position = static_cast<std::uint32_t>(row_count_);
  // TryEmplace copies the key only on actual insert, so the (hot) reject
  // path of a fixpoint loop allocates nothing.
  const bool inserted =
      arity_ <= 2
          ? packed_index_.TryEmplace(PackedKey(tuple.data(), arity_), position)
                .second
          : index_.TryEmplace(tuple, position).second;
  if (inserted) {
    // Column indexes are left as-is (generation-tagged at indexed_upto);
    // the next column_index() call appends postings for the new suffix.
    flat_.insert(flat_.end(), tuple.begin(), tuple.end());
    ++row_count_;
  }
  return inserted;
}

Relation::ColumnIndex::View Relation::ColumnIndex::Find(Element e) const {
  View view;
  if (std::size_t{e} + 1 < offsets.size()) {
    view.bulk = positions.data() + offsets[e];
    view.bulk_size = offsets[e + 1] - offsets[e];
  }
  if (!postings.empty()) {
    view.tail = postings.Find(e);
  }
  return view;
}

void Relation::BuildColumnIndexBulk(std::size_t column,
                                    ColumnIndex* out) const {
  if (row_count_ == 0) {
    out->indexed_upto = 0;
    return;
  }
  Element max_value = 0;
  for (std::size_t i = 0; i < row_count_; ++i) {
    max_value = std::max(max_value, flat_[i * arity_ + column]);
  }
  const std::size_t span = static_cast<std::size_t>(max_value) + 1;
  if (!DenseSpanFits(span, row_count_)) {
    std::vector<Element> fresh;
    for (std::size_t i = 0; i < row_count_; ++i) {
      const Element e = flat_[i * arity_ + column];
      std::vector<std::uint32_t>& list = out->postings[e];
      if (list.empty()) {
        fresh.push_back(e);
      }
      list.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(fresh.begin(), fresh.end());
    out->values = std::move(fresh);
    out->indexed_upto = row_count_;
    return;
  }
  // Count pass -> prefix sums -> scatter pass. The counts turn into the
  // element-addressed offsets in place, so no per-value allocation no
  // matter how many distinct values the column has. 32-bit counts (row
  // positions fit u32 by the membership-index layout) halve the array's
  // footprint, which is what keeps the scatter's random reads
  // cache-resident on million-row relations.
  std::vector<std::uint32_t>& offsets = out->offsets;
  offsets.assign(span + 1, 0);
  for (std::size_t i = 0; i < row_count_; ++i) {
    ++offsets[flat_[i * arity_ + column]];
  }
  std::size_t distinct = 0;
  for (std::size_t v = 0; v < span; ++v) {
    distinct += offsets[v] != 0;
  }
  out->values.reserve(distinct);
  // Inclusive prefix sums: offsets[v] becomes the end of v's run, and
  // offsets[span] (count 0) the row count.
  std::uint32_t running = 0;
  for (std::size_t v = 0; v <= span; ++v) {
    if (offsets[v] != 0) {
      out->values.push_back(static_cast<Element>(v));
    }
    running += offsets[v];
    offsets[v] = running;
  }
  out->positions.resize(row_count_);
  if (column == 0 && sorted_upto_ == row_count_) {
    // Already ordered by column 0: positions are the identity, and run v
    // starts where run v-1 ends.
    std::iota(out->positions.begin(), out->positions.end(), 0u);
    std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
    offsets[0] = 0;
  } else {
    // Filling each run from its end, rows in descending order, leaves the
    // run's ids ascending and offsets[v] at the run's start.
    for (std::size_t i = row_count_; i-- > 0;) {
      out->positions[--offsets[flat_[i * arity_ + column]]] =
          static_cast<std::uint32_t>(i);
    }
  }
  out->indexed_upto = row_count_;
}

void Relation::BuildColumnIndexesBulk() {
  column_indexes_.assign(arity_, nullptr);
  for (std::size_t c = 0; c < arity_; ++c) {
    auto built = std::make_shared<ColumnIndex>();
    BuildColumnIndexBulk(c, built.get());
    column_indexes_[c] = std::move(built);
  }
}

const Relation::ColumnIndex& Relation::column_index(std::size_t column) const {
  FMTK_CHECK(column < arity_)
      << "column " << column << " out of range for arity " << arity_;
  std::lock_guard<std::mutex> lock(column_mutex_);
  if (column_indexes_.size() != arity_) {
    column_indexes_.assign(arity_, nullptr);
  }
  if (column_indexes_[column] == nullptr) {
    column_indexes_[column] = std::make_shared<ColumnIndex>();
  }
  ColumnIndex& built = *column_indexes_[column];
  if (built.indexed_upto == 0 && row_count_ > 0) {
    // First build: one counting-sort pass into the CSR part, whether the
    // relation was bulk-constructed or grown through Add().
    BuildColumnIndexBulk(column, &built);
    return built;
  }
  if (built.indexed_upto < row_count_) {
    // Incremental sync: append postings for the rows added since the last
    // sync into the tail map and merge any first-seen elements into the
    // sorted value list.
    std::vector<Element> fresh;
    for (std::size_t i = built.indexed_upto; i < row_count_; ++i) {
      const Element e = flat_[i * arity_ + column];
      std::vector<std::uint32_t>& list = built.postings[e];
      if (list.empty() && (std::size_t{e} + 1 >= built.offsets.size() ||
                           built.offsets[e] == built.offsets[e + 1])) {
        fresh.push_back(e);
      }
      list.push_back(static_cast<std::uint32_t>(i));
    }
    if (!fresh.empty()) {
      std::sort(fresh.begin(), fresh.end());
      const std::size_t mid = built.values.size();
      built.values.insert(built.values.end(), fresh.begin(), fresh.end());
      std::inplace_merge(built.values.begin(), built.values.begin() + mid,
                         built.values.end());
    }
    built.indexed_upto = row_count_;
  }
  return built;
}

std::vector<std::size_t> Relation::MatchesAt(std::size_t column,
                                             Element e) const {
  const ColumnIndex::View view = column_index(column).Find(e);
  std::vector<std::size_t> out;
  out.reserve(view.size());
  out.insert(out.end(), view.bulk, view.bulk + view.bulk_size);
  if (view.tail != nullptr) {
    out.insert(out.end(), view.tail->begin(), view.tail->end());
  }
  return out;
}

std::size_t Relation::EraseRows(const Relation& doomed) {
  FMTK_CHECK(doomed.arity_ == arity_)
      << "EraseRows with arity " << doomed.arity_ << " against " << arity_;
  if (doomed.row_count_ == 0 || row_count_ == 0) {
    return 0;
  }
  if (arity_ == 0) {
    // Both relations hold the single empty tuple.
    const std::size_t removed = row_count_;
    row_count_ = 0;
    packed_index_.clear();
    std::lock_guard<std::mutex> lock(column_mutex_);
    column_indexes_.clear();
    return removed;
  }
  constexpr std::size_t kMiss = static_cast<std::size_t>(-1);
  // Resolve each doomed row to its position: the hash values double as a
  // row -> position map (stored at insert and kept accurate by the fix-ups
  // below), and sorted-prefix rows resolve by binary search. This keeps
  // the whole operation O(batch) resolution + targeted row moves, with no
  // per-row predicate over the full store.
  std::vector<std::size_t> positions;
  positions.reserve(doomed.row_count_);
  for (std::size_t i = 0; i < doomed.row_count_; ++i) {
    const Element* row = doomed.TupleData(i);
    std::size_t pos = kMiss;
    if (arity_ <= 2) {
      if (const std::uint32_t* p = packed_index_.Find(PackedKey(row, arity_))) {
        pos = *p;
      } else if (sorted_upto_ > 0) {
        pos = SortedPrefixFind(row);
      }
    } else {
      if (const std::uint32_t* p = index_.Find(Tuple(row, row + arity_))) {
        pos = *p;
      } else if (sorted_upto_ > 0) {
        pos = SortedPrefixFind(row);
      }
    }
    if (pos != kMiss) {
      positions.push_back(pos);
    }
  }
  if (positions.empty()) {
    return 0;
  }
  const std::size_t removed = positions.size();
  auto erase_entry = [&](const Element* row) {
    if (arity_ <= 2) {
      packed_index_.Erase(PackedKey(row, arity_));
    } else {
      index_.Erase(Tuple(row, row + arity_));
    }
  };
  auto store_position = [&](const Element* row, std::size_t pos) {
    if (arity_ <= 2) {
      *packed_index_.Find(PackedKey(row, arity_)) =
          static_cast<std::uint32_t>(pos);
    } else {
      *index_.Find(Tuple(row, row + arity_)) = static_cast<std::uint32_t>(pos);
    }
  };
  if (sorted_upto_ == 0) {
    // Fully hashed store: swap-with-last, O(batch) total. Processing the
    // positions in descending order guarantees the row swapped in is never
    // itself pending deletion. Insertion order is not preserved (relations
    // are sets; callers holding delta ranges re-pin them after pruning).
    std::sort(positions.begin(), positions.end(),
              std::greater<std::size_t>());
    for (const std::size_t pos : positions) {
      const std::size_t last = row_count_ - 1;
      erase_entry(flat_.data() + pos * arity_);
      if (pos != last) {
        const Element* src = flat_.data() + last * arity_;
        std::copy(src, src + arity_, flat_.begin() + pos * arity_);
        store_position(flat_.data() + pos * arity_, pos);
      }
      --row_count_;
    }
    flat_.resize(row_count_ * arity_);
  } else {
    // Sorted-prefix store: order-preserving compaction of the gaps between
    // the doomed positions, so the prefix stays sorted. Only old-suffix
    // rows have hash entries; survivors get their stored positions
    // refreshed after the move.
    std::sort(positions.begin(), positions.end());
    std::size_t doomed_sorted = 0;
    for (const std::size_t pos : positions) {
      if (pos < sorted_upto_) {
        ++doomed_sorted;
      } else {
        erase_entry(flat_.data() + pos * arity_);
      }
    }
    std::size_t write = positions[0];
    for (std::size_t k = 0; k < positions.size(); ++k) {
      const std::size_t gap_begin = positions[k] + 1;
      const std::size_t gap_end =
          k + 1 < positions.size() ? positions[k + 1] : row_count_;
      const Element* src = flat_.data() + gap_begin * arity_;
      const std::size_t count = (gap_end - gap_begin) * arity_;
      std::copy(src, src + count, flat_.begin() + write * arity_);
      write += gap_end - gap_begin;
    }
    row_count_ = write;
    flat_.resize(row_count_ * arity_);
    if (doomed_sorted > 0) {
      sorted_upto_ -= doomed_sorted;
      BuildRunDirectory();
    }
    for (std::size_t i = sorted_upto_; i < row_count_; ++i) {
      store_position(flat_.data() + i * arity_, i);
    }
  }
  std::lock_guard<std::mutex> lock(column_mutex_);
  column_indexes_.clear();
  return removed;
}

void Relation::Consolidate() {
  if (arity_ == 0 || row_count_ == sorted_upto_) {
    return;  // Arity 0 has no row order; otherwise already consolidated.
  }
  if (arity_ <= 2) {
    std::vector<std::uint64_t> keys(row_count_);
    for (std::size_t i = 0; i < row_count_; ++i) {
      keys[i] = PackedKey(flat_.data() + i * arity_, arity_);
    }
    internal_rows::SortPackedRows(keys);
    for (std::size_t i = 0; i < row_count_; ++i) {
      const std::uint64_t key = keys[i];
      Element* row = flat_.data() + i * arity_;
      if (arity_ == 2) {
        row[0] = static_cast<Element>(key >> 32);
        row[1] = static_cast<Element>(key);
      } else {
        row[0] = static_cast<Element>(key);
      }
    }
    packed_index_.clear();
  } else {
    std::vector<std::uint32_t> order(row_count_);
    for (std::size_t i = 0; i < row_count_; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    const Element* data = flat_.data();
    const std::size_t arity = arity_;
    std::sort(order.begin(), order.end(),
              [data, arity](std::uint32_t a, std::uint32_t b) {
                const Element* ra = data + std::size_t{a} * arity;
                const Element* rb = data + std::size_t{b} * arity;
                return std::lexicographical_compare(ra, ra + arity, rb,
                                                    rb + arity);
              });
    std::vector<Element> sorted;
    sorted.reserve(flat_.size());
    for (const std::uint32_t i : order) {
      const Element* row = data + std::size_t{i} * arity_;
      sorted.insert(sorted.end(), row, row + arity_);
    }
    flat_ = std::move(sorted);
    index_.clear();
  }
  sorted_upto_ = row_count_;
  BuildRunDirectory();
  std::lock_guard<std::mutex> lock(column_mutex_);
  column_indexes_.clear();
}

std::string Relation::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < row_count_; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "(";
    const Element* row = flat_.data() + i * arity_;
    for (std::size_t j = 0; j < arity_; ++j) {
      if (j > 0) {
        out += ",";
      }
      out += std::to_string(row[j]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

}  // namespace fmtk
