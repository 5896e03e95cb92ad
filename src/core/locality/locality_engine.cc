#include "core/locality/locality_engine.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "base/bitset.h"
#include "base/check.h"
#include "base/hash.h"
#include "base/popcount.h"
#include "structures/graph.h"

namespace fmtk {

LocalityStats& LocalityStats::operator+=(const LocalityStats& other) {
  balls_extracted += other.balls_extracted;
  bfs_node_visits += other.bfs_node_visits;
  frontier_reuses += other.frontier_reuses;
  balls_shifted += other.balls_shifted;
  return *this;
}

std::string LocalityStats::ToString() const {
  return "balls_extracted=" + std::to_string(balls_extracted) +
         " bfs_node_visits=" + std::to_string(bfs_node_visits) +
         " frontier_reuses=" + std::to_string(frontier_reuses) +
         " balls_shifted=" + std::to_string(balls_shifted);
}

LocalityEngine::LocalityEngine(const Structure& s)
    : s_(&s),
      domain_size_(s.domain_size()),
      max_degree_cache_(s.signature().relation_count()),
      scratch_(s.domain_size()) {
  // CSR-pack the Gaifman adjacency (GaifmanAdjacency's lists) straight
  // from the tuples: count each element's co-members, scatter them, then
  // sort and deduplicate every slice and close the gaps between slices.
  auto for_each_gaifman_pair = [&s](auto&& fn) {
    for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
      const Relation& rel = s.relation(r);
      const std::size_t arity = rel.arity();
      for (std::size_t row = 0; row < rel.size(); ++row) {
        const Element* t = rel.TupleData(row);
        for (std::size_t i = 0; i < arity; ++i) {
          for (std::size_t j = i + 1; j < arity; ++j) {
            if (t[i] != t[j]) {
              fn(t[i], t[j]);
              fn(t[j], t[i]);
            }
          }
        }
      }
    }
  };
  csr_offsets_.assign(domain_size_ + 1, 0);
  for_each_gaifman_pair([this](Element a, Element) { ++csr_offsets_[a + 1]; });
  for (Element v = 0; v < domain_size_; ++v) {
    csr_offsets_[v + 1] += csr_offsets_[v];
  }
  csr_neighbors_.resize(csr_offsets_[domain_size_]);
  {
    std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                      csr_offsets_.end() - 1);
    for_each_gaifman_pair(
        [&](Element a, Element b) { csr_neighbors_[cursor[a]++] = b; });
  }
  std::uint32_t kept = 0;
  for (Element v = 0; v < domain_size_; ++v) {
    const auto begin = csr_neighbors_.begin() + csr_offsets_[v];
    const auto end = csr_neighbors_.begin() + csr_offsets_[v + 1];
    std::sort(begin, end);
    const auto unique_end = std::unique(begin, end);
    csr_offsets_[v] = kept;
    std::copy(begin, unique_end, csr_neighbors_.begin() + kept);
    kept += static_cast<std::uint32_t>(unique_end - begin);
  }
  csr_offsets_[domain_size_] = kept;
  csr_neighbors_.resize(kept);
  // Occurrence lists: tuple indices by member element, one entry per
  // distinct member so the min-member rule in MaterializeFromBall emits
  // every contained tuple exactly once.
  occurrences_.resize(s.signature().relation_count());
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const Relation& rel = s.relation(r);
    const std::size_t arity = rel.arity();
    const std::size_t rows = rel.size();
    Occurrences& occ = occurrences_[r];
    occ.offsets.assign(domain_size_ + 1, 0);
    auto for_each_distinct_member = [arity](const Element* row, auto&& fn) {
      for (std::size_t i = 0; i < arity; ++i) {
        bool repeated = false;
        for (std::size_t j = 0; j < i; ++j) {
          if (row[j] == row[i]) {
            repeated = true;
            break;
          }
        }
        if (!repeated) {
          fn(row[i]);
        }
      }
    };
    for (std::size_t idx = 0; idx < rows; ++idx) {
      for_each_distinct_member(rel.TupleData(idx),
                               [&](Element e) { ++occ.offsets[e + 1]; });
    }
    for (Element v = 0; v < domain_size_; ++v) {
      occ.offsets[v + 1] += occ.offsets[v];
    }
    occ.tuple_index.resize(occ.offsets[domain_size_]);
    std::vector<std::uint32_t> cursor(occ.offsets.begin(),
                                      occ.offsets.end() - 1);
    for (std::size_t idx = 0; idx < rows; ++idx) {
      for_each_distinct_member(rel.TupleData(idx), [&](Element e) {
        occ.tuple_index[cursor[e]++] = static_cast<std::uint32_t>(idx);
      });
    }
  }
}

void LocalityEngine::BallInto(Scratch& scratch, const Tuple& center,
                              std::size_t radius, std::vector<Element>& ball,
                              std::vector<Element>* frontier,
                              LocalityStats& stats) const {
  const std::uint64_t gen = ++scratch.generation;
  scratch.queue.clear();
  for (Element e : center) {
    FMTK_CHECK(e < domain_size_) << "ball center outside domain";
    if (scratch.stamp[e] == gen) {
      continue;
    }
    scratch.stamp[e] = gen;
    scratch.queue.push_back(e);
    ++stats.bfs_node_visits;
  }
  std::size_t layer_begin = 0;
  std::size_t layer_end = scratch.queue.size();
  for (std::size_t d = 0; d < radius && layer_begin < layer_end; ++d) {
    for (std::size_t i = layer_begin; i < layer_end; ++i) {
      const Element e = scratch.queue[i];
      for (std::uint32_t k = csr_offsets_[e]; k < csr_offsets_[e + 1]; ++k) {
        const Element w = csr_neighbors_[k];
        if (scratch.stamp[w] != gen) {
          scratch.stamp[w] = gen;
          scratch.queue.push_back(w);
          ++stats.bfs_node_visits;
        }
      }
    }
    layer_begin = layer_end;
    layer_end = scratch.queue.size();
  }
  if (frontier != nullptr) {
    frontier->assign(scratch.queue.begin() + layer_begin,
                     scratch.queue.begin() + layer_end);
  }
  ball.assign(scratch.queue.begin(), scratch.queue.end());
  std::sort(ball.begin(), ball.end());
  ++stats.balls_extracted;
}

void LocalityEngine::ExtendBall(Scratch& scratch, std::vector<Element>& ball,
                                std::vector<Element>& frontier,
                                LocalityStats& stats) const {
  const std::uint64_t gen = ++scratch.generation;
  for (Element e : ball) {
    scratch.stamp[e] = gen;
  }
  std::vector<Element>& next = scratch.queue;  // reused, no per-call alloc
  next.clear();
  for (Element e : frontier) {
    for (std::uint32_t k = csr_offsets_[e]; k < csr_offsets_[e + 1]; ++k) {
      const Element w = csr_neighbors_[k];
      if (scratch.stamp[w] != gen) {
        scratch.stamp[w] = gen;
        next.push_back(w);
        ++stats.bfs_node_visits;
      }
    }
  }
  ++stats.frontier_reuses;
  if (!next.empty()) {
    const std::size_t old_size = ball.size();
    ball.insert(ball.end(), next.begin(), next.end());
    std::sort(ball.begin() + old_size, ball.end());
    std::inplace_merge(ball.begin(), ball.begin() + old_size, ball.end());
  }
  frontier.assign(next.begin(), next.end());
}

void LocalityEngine::IndexBall(Scratch& scratch,
                               const std::vector<Element>& ball) {
  const std::uint64_t gen = ++scratch.local_generation;
  for (std::size_t i = 0; i < ball.size(); ++i) {
    scratch.local_stamp[ball[i]] = gen;
    scratch.local[ball[i]] = static_cast<std::uint32_t>(i);
  }
}

Neighborhood LocalityEngine::MaterializeFromBall(
    Scratch& scratch, const std::vector<Element>& ball,
    const Tuple& center) const {
  Structure induced(s_->signature_ptr(), ball.size());
  const std::uint64_t gen = scratch.local_generation;
  auto local_of = [&scratch, gen](Element e) -> std::optional<Element> {
    if (scratch.local_stamp[e] != gen) {
      return std::nullopt;
    }
    return static_cast<Element>(scratch.local[e]);
  };
  // Each relation is collected into scratch, sorted and installed as one
  // flat array with no membership hash (Relation::FromSortedRows), so a
  // neighborhood the type index keeps costs little more than its rows.
  std::vector<Element>& rows = scratch.rows;
  std::vector<std::uint32_t>& order = scratch.order;
  for (std::size_t r = 0; r < s_->signature().relation_count(); ++r) {
    const Relation& rel = s_->relation(r);
    if (rel.arity() == 0) {
      // Propositional flags have no members and thus no occurrence entries;
      // they survive induction verbatim (the empty tuple, if present).
      if (!rel.empty()) {
        induced.AddTuple(r, {});
      }
      continue;
    }
    const Occurrences& occ = occurrences_[r];
    const std::size_t arity = rel.arity();
    rows.clear();
    for (Element e : ball) {
      for (std::uint32_t k = occ.offsets[e]; k < occ.offsets[e + 1]; ++k) {
        const Element* t = rel.TupleData(occ.tuple_index[k]);
        // One pass: track the minimum (each fully-contained tuple is added
        // exactly once, when e is its minimum element) while relabeling.
        const std::size_t start = rows.size();
        Element mn = t[0];
        bool inside = true;
        for (std::size_t i = 0; i < arity && inside; ++i) {
          const Element x = t[i];
          mn = std::min(mn, x);
          inside = scratch.local_stamp[x] == gen;
          rows.push_back(static_cast<Element>(scratch.local[x]));
        }
        if (!inside || mn != e) {
          rows.resize(start);
        }
      }
    }
    const std::size_t count = rows.size() / arity;
    if (count == 0) {
      continue;
    }
    // Relabeling is injective, so the rows are distinct; sort them.
    order.resize(count);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&rows, arity](std::uint32_t a, std::uint32_t b) {
                return std::lexicographical_compare(
                    rows.begin() + a * arity, rows.begin() + (a + 1) * arity,
                    rows.begin() + b * arity, rows.begin() + (b + 1) * arity);
              });
    std::vector<Element> sorted;
    sorted.reserve(rows.size());
    for (const std::uint32_t i : order) {
      sorted.insert(sorted.end(), rows.begin() + i * arity,
                    rows.begin() + (i + 1) * arity);
    }
    induced.SetRelation(
        r, Relation::FromSortedRows(arity, std::move(sorted),
                                    /*build_column_indexes=*/false));
  }
  for (std::size_t c = 0; c < s_->signature().constant_count(); ++c) {
    std::optional<Element> v = s_->constant(c);
    if (v.has_value()) {
      std::optional<Element> lv = local_of(*v);
      if (lv.has_value()) {
        induced.SetConstant(c, *lv);
      }
    }
  }
  Tuple distinguished;
  distinguished.reserve(center.size());
  for (Element e : center) {
    std::optional<Element> le = local_of(e);
    FMTK_CHECK(le.has_value()) << "center must lie in its ball";
    distinguished.push_back(*le);
  }
  return Neighborhood{std::move(induced), std::move(distinguished)};
}

std::size_t LocalityEngine::BallContentHash(Scratch& scratch,
                                            const std::vector<Element>& ball,
                                            const Tuple& center) const {
  // Mirrors the content hash in neighborhood.cc on the materialization this
  // ball would produce. The per-relation fold is an order-independent sum,
  // so streaming the induced tuples in occurrence order lands on the exact
  // value NeighborhoodContentHash would report — no Structure is built.
  std::size_t h = ball.size();
  VectorHash<Element> tuple_hash;
  const std::uint64_t gen = scratch.local_generation;
  auto local_of = [&scratch, gen](Element e) -> std::optional<Element> {
    if (scratch.local_stamp[e] != gen) {
      return std::nullopt;
    }
    return static_cast<Element>(scratch.local[e]);
  };
  for (std::size_t r = 0; r < s_->signature().relation_count(); ++r) {
    const Relation& rel = s_->relation(r);
    std::size_t folded = 0;
    std::size_t count = 0;
    if (rel.arity() == 0) {
      count = rel.size();
      for (const auto t : rel.rows()) {
        folded += tuple_hash.Hash(t);
      }
    } else {
      const Occurrences& occ = occurrences_[r];
      const std::size_t arity = rel.arity();
      for (Element e : ball) {
        for (std::uint32_t k = occ.offsets[e]; k < occ.offsets[e + 1]; ++k) {
          const Element* t = rel.TupleData(occ.tuple_index[k]);
          // One fused pass: track the minimum member (the tuple is emitted
          // only at its minimum), membership of every member, and the
          // VectorHash of the relabeled tuple (seed = size, then each local
          // index combined in position order, then Mix64 — bit-identical to
          // hashing the materialized tuple).
          Element mn = t[0];
          bool inside = true;
          std::size_t th = arity;
          for (std::size_t i = 0; i < arity; ++i) {
            const Element x = t[i];
            if (x < mn) {
              mn = x;
            }
            if (inside) {
              if (scratch.local_stamp[x] != gen) {
                inside = false;
              } else {
                HashCombine(th, static_cast<Element>(scratch.local[x]));
              }
            }
          }
          if (mn != e || !inside) {
            continue;
          }
          ++count;
          folded += static_cast<std::size_t>(Mix64(th));
        }
      }
    }
    HashCombine(h, folded + count);
  }
  for (std::size_t c = 0; c < s_->signature().constant_count(); ++c) {
    std::optional<Element> v = s_->constant(c);
    std::optional<Element> lv;
    if (v.has_value()) {
      lv = local_of(*v);
    }
    HashCombine(h, lv.has_value() ? static_cast<std::size_t>(*lv) + 1 : 0);
  }
  // VectorHash of the relabeled center, folded in place like the tuples.
  std::size_t center_hash = center.size();
  for (Element e : center) {
    std::optional<Element> le = local_of(e);
    FMTK_CHECK(le.has_value()) << "center must lie in its ball";
    HashCombine(center_hash, *le);
  }
  HashCombine(h, static_cast<std::size_t>(Mix64(center_hash)));
  return h;
}

bool LocalityEngine::BallContentMatches(Scratch& scratch,
                                        const std::vector<Element>& ball,
                                        const Tuple& center,
                                        const Neighborhood& n) const {
  // Compares the materialization this ball would produce against `n` as
  // sets: per relation, equal sizes and every induced tuple, relabeled, a
  // row of `n` (the induced tuples are distinct, so that is equality).
  if (n.structure.domain_size() != ball.size() ||
      n.distinguished.size() != center.size()) {
    return false;
  }
  const std::uint64_t gen = scratch.local_generation;
  auto local_of = [&scratch, gen](Element e) -> std::optional<Element> {
    if (scratch.local_stamp[e] != gen) {
      return std::nullopt;
    }
    return static_cast<Element>(scratch.local[e]);
  };
  for (std::size_t i = 0; i < center.size(); ++i) {
    std::optional<Element> le = local_of(center[i]);
    FMTK_CHECK(le.has_value()) << "center must lie in its ball";
    if (n.distinguished[i] != *le) {
      return false;
    }
  }
  for (std::size_t r = 0; r < s_->signature().relation_count(); ++r) {
    const Relation& rel = s_->relation(r);
    const Relation& out = n.structure.relation(r);
    if (rel.arity() == 0) {
      if (out.size() != rel.size()) {
        return false;
      }
      continue;
    }
    const Occurrences& occ = occurrences_[r];
    const std::size_t arity = rel.arity();
    std::vector<Element>& row = scratch.rows;
    row.resize(arity);
    std::size_t idx = 0;
    for (Element e : ball) {
      for (std::uint32_t k = occ.offsets[e]; k < occ.offsets[e + 1]; ++k) {
        const Element* t = rel.TupleData(occ.tuple_index[k]);
        // Fused min + membership pass; only fully-contained tuples at their
        // minimum member are compared, exactly as MaterializeFromBall emits
        // them.
        Element mn = t[0];
        bool inside = true;
        for (std::size_t i = 0; i < arity; ++i) {
          const Element x = t[i];
          if (x < mn) {
            mn = x;
          }
          if (scratch.local_stamp[x] != gen) {
            inside = false;
          }
        }
        if (mn != e || !inside) {
          continue;
        }
        if (idx == out.size()) {
          return false;
        }
        for (std::size_t i = 0; i < arity; ++i) {
          row[i] = static_cast<Element>(scratch.local[t[i]]);
        }
        if (!out.ContainsRow(row.data())) {
          return false;
        }
        ++idx;
      }
    }
    if (idx != out.size()) {
      return false;
    }
  }
  for (std::size_t c = 0; c < s_->signature().constant_count(); ++c) {
    std::optional<Element> v = s_->constant(c);
    std::optional<Element> lv;
    if (v.has_value()) {
      lv = local_of(*v);
    }
    if (n.structure.constant(c) != lv) {
      return false;
    }
  }
  return true;
}

NeighborhoodTypeIndex::TypeId LocalityEngine::TypeOfBall(
    const std::vector<Element>& ball, const Tuple& center,
    NeighborhoodTypeIndex& index,
    NeighborhoodTypeIndex::PassMemo& memo) const {
  IndexBall(scratch_, ball);
  auto matches = [&](const Neighborhood& content) {
    return BallContentMatches(scratch_, ball, center, content);
  };
  // Identical contents come in element-contiguous runs (shifted interior
  // balls of a regular structure), so probing under the previous answer's
  // hash usually finds this ball without hashing it.
  if (const std::optional<std::size_t> last = memo.last_hash()) {
    if (const auto id = index.FindContent(memo, *last, matches)) {
      return *id;
    }
  }
  const std::size_t hash = BallContentHash(scratch_, ball, center);
  if (const auto id = index.FindContent(memo, hash, matches)) {
    return *id;
  }
  return index.Intern(memo, MaterializeFromBall(scratch_, ball, center),
                      hash);
}

NeighborhoodTypeIndex::TypeId LocalityEngine::TypeAt(
    const Tuple& center, std::size_t radius, NeighborhoodTypeIndex& index,
    NeighborhoodTypeIndex::PassMemo& memo) const {
  BallInto(scratch_, center, radius, scratch_.ball, nullptr, stats_);
  return TypeOfBall(scratch_.ball, center, index, memo);
}

std::vector<Element> LocalityEngine::Ball(const Tuple& center,
                                          std::size_t radius) const {
  std::vector<Element> ball;
  BallInto(scratch_, center, radius, ball, nullptr, stats_);
  return ball;
}

Neighborhood LocalityEngine::NeighborhoodAt(const Tuple& center,
                                            std::size_t radius) const {
  BallInto(scratch_, center, radius, scratch_.ball, nullptr, stats_);
  IndexBall(scratch_, scratch_.ball);
  return MaterializeFromBall(scratch_, scratch_.ball, center);
}

std::size_t LocalityEngine::CachedMaxDegree(std::size_t rel_index) const {
  FMTK_CHECK(rel_index < max_degree_cache_.size())
      << "relation index out of range";
  if (!max_degree_cache_[rel_index].has_value()) {
    max_degree_cache_[rel_index] = MaxDegree(*s_, rel_index);
  }
  return *max_degree_cache_[rel_index];
}

std::map<NeighborhoodTypeIndex::TypeId, std::size_t>
LocalityEngine::TypeHistogram(std::size_t radius,
                              NeighborhoodTypeIndex& index) const {
  return Histogram(radius, nullptr, index);
}

NeighborhoodSweep LocalityEngine::NewSweep() const {
  return NeighborhoodSweep(this);
}

std::vector<std::map<std::size_t, std::size_t>>
LocalityEngine::BallSizeHistogram(std::size_t radius) const {
  std::vector<std::map<std::size_t, std::size_t>> out(radius + 1);
  if (domain_size_ == 0) {
    return out;
  }
  ElementBitset visited(domain_size_);
  const std::uint64_t* words = visited.words();
  std::vector<Element> members;   // every node of the current ball
  std::size_t layer_begin = 0;    // members[layer_begin, end) = frontier
  for (Element v = 0; v < domain_size_; ++v) {
    visited.Set(v);
    members.assign(1, v);
    layer_begin = 0;
    std::size_t lo_word = static_cast<std::size_t>(v) >> 6;
    std::size_t hi_word = lo_word;
    ++stats_.balls_extracted;
    ++stats_.bfs_node_visits;
    ++out[0][1];
    for (std::size_t r = 1; r <= radius; ++r) {
      const std::size_t layer_end = members.size();
      for (std::size_t i = layer_begin; i < layer_end; ++i) {
        const Element e = members[i];
        for (std::uint32_t k = csr_offsets_[e]; k < csr_offsets_[e + 1];
             ++k) {
          const Element w = csr_neighbors_[k];
          if (!visited.Test(w)) {
            visited.Set(w);
            members.push_back(w);
            const std::size_t wi = static_cast<std::size_t>(w) >> 6;
            lo_word = std::min(lo_word, wi);
            hi_word = std::max(hi_word, wi);
            ++stats_.bfs_node_visits;
          }
        }
      }
      layer_begin = layer_end;
      // The level's ball size in one bulk popcount over the touched word
      // range — the measurement kernel the per-node counter would
      // serialize.
      const std::size_t size = static_cast<std::size_t>(
          PopcountWords(words + lo_word, hi_word - lo_word + 1));
      ++out[r][size];
    }
    // O(|ball|) reset: clear exactly the bits this ball set.
    for (const Element e : members) {
      visited.Clear(e);
    }
  }
  return out;
}

const ElementBitset& LocalityEngine::ShiftEqualBits() const {
  if (shift_equal_.has_value()) {
    return *shift_equal_;
  }
  ElementBitset& bits = shift_equal_.emplace(domain_size_);
  for (std::size_t c = 0; c < s_->signature().constant_count(); ++c) {
    if (s_->constant(c).has_value()) {
      return bits;
    }
  }
  if (domain_size_ > 0) {
    bits.SetAll();
    bits.Clear(domain_size_ - 1);  // no successor
  }
  // Per relation, compare the rows containing w, moved by +1, with the rows
  // containing w + 1: first in occurrence order, which matches when the
  // rows were inserted in a regular pattern, else both sorted (adding 1
  // keeps the order).
  std::vector<const Element*> rows;
  std::vector<const Element*> next_rows;
  for (std::size_t r = 0; r < s_->signature().relation_count(); ++r) {
    const Relation& rel = s_->relation(r);
    const std::size_t arity = rel.arity();
    if (arity == 0) {
      continue;  // arity-0 relations are the same in every ball
    }
    const Occurrences& occ = occurrences_[r];
    auto rows_of = [&](Element e, std::vector<const Element*>& out) {
      out.clear();
      for (std::uint32_t k = occ.offsets[e]; k < occ.offsets[e + 1]; ++k) {
        out.push_back(rel.TupleData(occ.tuple_index[k]));
      }
    };
    auto shifted_row = [arity](const Element* a, const Element* b) {
      for (std::size_t j = 0; j < arity; ++j) {
        if (a[j] + 1 != b[j]) {
          return false;
        }
      }
      return true;
    };
    auto row_less = [arity](const Element* a, const Element* b) {
      return std::lexicographical_compare(a, a + arity, b, b + arity);
    };
    for (Element w = 0; w + 1 < domain_size_; ++w) {
      if (!bits.Test(w)) {
        continue;
      }
      const std::uint32_t begin = occ.offsets[w];
      const std::uint32_t count = occ.offsets[w + 1] - begin;
      if (occ.offsets[w + 2] - occ.offsets[w + 1] != count) {
        bits.Clear(w);
        continue;
      }
      std::uint32_t k = 0;
      while (k < count &&
             shifted_row(rel.TupleData(occ.tuple_index[begin + k]),
                         rel.TupleData(occ.tuple_index[begin + count + k]))) {
        ++k;
      }
      if (k == count) {
        continue;
      }
      rows_of(w, rows);
      rows_of(w + 1, next_rows);
      std::sort(rows.begin(), rows.end(), row_less);
      std::sort(next_rows.begin(), next_rows.end(), row_less);
      if (!std::equal(rows.begin(), rows.end(), next_rows.begin(),
                      shifted_row)) {
        bits.Clear(w);
      }
    }
  }
  return bits;
}

std::map<NeighborhoodTypeIndex::TypeId, std::size_t> LocalityEngine::Histogram(
    std::size_t radius, const std::vector<std::vector<Element>>* stored_balls,
    NeighborhoodTypeIndex& index) const {
  const ElementBitset& shift_equal = ShiftEqualBits();
  NeighborhoodTypeIndex::PassMemo memo;
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> histogram;
  std::vector<Element>& fresh_ball = scratch_.ball;
  Tuple center(1);
  NeighborhoodTypeIndex::TypeId id = 0;
  for (Element v = 0; v < domain_size_; ++v) {
    center[0] = v;
    // `fresh_ball` still holds B_r(v - 1). If all of B_r(v - 1) is
    // shift-equal, N_r(v) is N_r(v - 1): same type, no BFS, no probe.
    bool shifted = false;
    if (v > 0) {
      const std::vector<Element>& previous =
          stored_balls == nullptr ? fresh_ball : (*stored_balls)[v - 1];
      shifted = std::all_of(previous.begin(), previous.end(),
                            [&shift_equal](Element w) {
                              return shift_equal.Test(w);
                            });
    }
    if (stored_balls == nullptr) {
      if (shifted) {
        for (Element& e : fresh_ball) {
          ++e;
        }
        ++stats_.balls_shifted;
      } else {
        BallInto(scratch_, center, radius, fresh_ball, nullptr, stats_);
      }
    }
    id = shifted ? index.RepeatContent(id)
                 : TypeOfBall(stored_balls == nullptr ? fresh_ball
                                                      : (*stored_balls)[v],
                              center, index, memo);
    ++histogram[id];
  }
  return histogram;
}

NeighborhoodSweep::NeighborhoodSweep(const LocalityEngine* engine)
    : engine_(engine),
      balls_(engine->domain_size()),
      frontiers_(engine->domain_size()) {
  for (Element v = 0; v < engine_->domain_size(); ++v) {
    balls_[v] = {v};
    frontiers_[v] = {v};
  }
  engine_->stats_.balls_extracted += engine_->domain_size();
  engine_->stats_.bfs_node_visits += engine_->domain_size();
}

const std::vector<Element>& NeighborhoodSweep::BallOf(Element v) const {
  FMTK_CHECK(v < balls_.size()) << "element outside domain";
  return balls_[v];
}

std::map<NeighborhoodTypeIndex::TypeId, std::size_t>
NeighborhoodSweep::HistogramAt(std::size_t radius,
                               NeighborhoodTypeIndex& index) {
  FMTK_CHECK(radius >= radius_) << "sweep radii must be nondecreasing";
  while (radius_ < radius) {
    for (Element v = 0; v < engine_->domain_size(); ++v) {
      engine_->ExtendBall(engine_->scratch_, balls_[v], frontiers_[v],
                          engine_->stats_);
    }
    ++radius_;
  }
  return engine_->Histogram(radius_, &balls_, index);
}

}  // namespace fmtk
