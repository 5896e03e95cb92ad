#include "core/games/game_engine.h"

#include <algorithm>
#include <string>

#include "base/check.h"
#include "base/hash.h"

namespace fmtk {
namespace game_engine {

namespace {

// splitmix64: Weyl increment plus the shared Mix64 finalizer. Fixed seed
// keeps Zobrist codes (and hence table behavior) reproducible run to run.
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return Mix64(state);
}

// Is the transposition (u v) an automorphism of s? It suffices to check the
// tuples containing u or v: all other tuples are fixed pointwise.
bool SwapIsAutomorphism(const Structure& s, const OccurrenceLists& occ,
                        Element u, Element v) {
  for (std::size_t r = 0; r < occ.size(); ++r) {
    const std::size_t arity = s.relation(r).arity();
    for (const std::vector<const Element*>* lists :
         {&occ[r][u], &occ[r][v]}) {
      for (const Element* t : *lists) {
        Tuple swapped(t, t + arity);
        for (Element& e : swapped) {
          e = e == u ? v : (e == v ? u : e);
        }
        if (!s.relation(r).Contains(swapped)) {
          return false;
        }
      }
    }
  }
  return true;
}

// Hash of AtomicInvariantOf(s, e) per element.
std::vector<std::size_t> ElementSignatures(const Structure& s) {
  std::vector<std::size_t> sig(s.domain_size());
  for (Element e = 0; e < s.domain_size(); ++e) {
    std::size_t h = 0x243f6a8885a308d3ULL;
    for (std::size_t v : AtomicInvariantOf(s, e)) {
      HashCombine(h, v);
    }
    sig[e] = h;
  }
  return sig;
}

SignatureBuckets BuildSignatureBuckets(const std::vector<std::size_t>& sigs) {
  SignatureBuckets buckets;
  for (std::size_t e = 0; e < sigs.size(); ++e) {
    auto [bucket, inserted] = buckets.TryEmplace(sigs[e]);
    if (inserted) {
      bucket->Reset(sigs.size());
    }
    bucket->Set(e);
  }
  return buckets;
}

}  // namespace

std::vector<std::uint32_t> SwapClasses(const Structure& s,
                                       const OccurrenceLists& occ,
                                       std::uint32_t* num_classes) {
  const std::size_t n = s.domain_size();
  std::vector<bool> is_constant(n, false);
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    if (std::optional<Element> e = s.constant(c)) {
      is_constant[*e] = true;
    }
  }
  const std::vector<std::size_t> sig = ElementSignatures(s);
  std::vector<std::uint32_t> cls(n, 0);
  std::vector<Element> representatives;  // class id -> first element
  for (Element e = 0; e < n; ++e) {
    std::uint32_t assigned = static_cast<std::uint32_t>(-1);
    if (!is_constant[e]) {
      for (std::size_t c = 0; c < representatives.size(); ++c) {
        const Element rep = representatives[c];
        if (is_constant[rep] || sig[rep] != sig[e]) {
          continue;
        }
        if (SwapIsAutomorphism(s, occ, rep, e)) {
          assigned = static_cast<std::uint32_t>(c);
          break;
        }
      }
    }
    if (assigned == static_cast<std::uint32_t>(-1)) {
      assigned = static_cast<std::uint32_t>(representatives.size());
      representatives.push_back(e);
    }
    cls[e] = assigned;
  }
  if (num_classes != nullptr) {
    *num_classes = static_cast<std::uint32_t>(representatives.size());
  }
  return cls;
}

ZobristTable::ZobristTable(std::size_t a_domain, std::size_t b_domain)
    : b_domain_(b_domain), codes_(a_domain * b_domain) {
  std::uint64_t state = 0x8d1f5c1e0d3a2b4cULL;
  for (std::uint64_t& code : codes_) {
    code = SplitMix64(state);
  }
}

std::uint64_t TranspositionKey(std::uint64_t position_hash,
                               std::size_t rounds) {
  std::uint64_t state =
      position_hash + 0xbf58476d1ce4e5b9ULL * (rounds + 1);
  return SplitMix64(state);
}

PositionState::PositionState(const Structure& a, const Structure& b,
                             const OccurrenceLists* occ_a,
                             const OccurrenceLists* occ_b,
                             const ZobristTable* zobrist)
    : a_(&a),
      b_(&b),
      occ_a_(occ_a),
      occ_b_(occ_b),
      zobrist_(zobrist),
      a_map_(a.domain_size(), kUnmapped),
      b_map_(b.domain_size(), kUnmapped),
      a_count_(a.domain_size(), 0),
      b_count_(b.domain_size(), 0) {
  for (const RelationSymbol& r : a.signature().relations()) {
    scratch_.resize(std::max(scratch_.size(), r.arity));
  }
}

bool PositionState::NewPairRespectsRelations(Element x, Element y) {
  // Any tuple made fully mapped by adding (x, y) contains x (resp. its
  // mirror contains y), so checking the occurrence lists of x and y is
  // complete. Tuples already fully mapped were validated earlier.
  for (std::size_t r = 0; r < occ_a_->size(); ++r) {
    const std::size_t arity = a_->relation(r).arity();
    if (!MappedRowsIn((*occ_a_)[r][x], arity, a_map_, b_->relation(r),
                      scratch_.data()) ||
        !MappedRowsIn((*occ_b_)[r][y], arity, b_map_, a_->relation(r),
                      scratch_.data())) {
      return false;
    }
  }
  return true;
}

bool PositionState::TryAdd(Element x, Element y) {
  if (x >= a_map_.size() || y >= b_map_.size()) {
    return false;
  }
  if (a_map_[x] != kUnmapped) {
    if (a_map_[x] != y) {
      return false;  // Not a function.
    }
    ++a_count_[x];
    ++b_count_[y];
    return true;
  }
  if (b_map_[y] != kUnmapped) {
    return false;  // Not injective.
  }
  a_map_[x] = y;
  b_map_[y] = x;
  if (!NewPairRespectsRelations(x, y)) {
    a_map_[x] = kUnmapped;
    b_map_[y] = kUnmapped;
    return false;
  }
  a_count_[x] = 1;
  b_count_[y] = 1;
  hash_ += zobrist_->PairCode(x, y);
  ++distinct_;
  return true;
}

void PositionState::Remove(Element x, Element y) {
  FMTK_CHECK(x < a_map_.size() && a_map_[x] == y)
      << "Remove of a pair that is not on the board";
  --a_count_[x];
  --b_count_[y];
  if (a_count_[x] == 0) {
    a_map_[x] = kUnmapped;
    b_map_[y] = kUnmapped;
    hash_ -= zobrist_->PairCode(x, y);
    --distinct_;
  }
}

bool NullaryRelationsAgree(const Structure& a, const Structure& b) {
  const std::size_t num_relations = std::min(
      a.signature().relation_count(), b.signature().relation_count());
  for (std::size_t r = 0; r < num_relations; ++r) {
    if (a.signature().relation(r).arity != 0) {
      continue;
    }
    if ((a.relation(r).size() > 0) != (b.relation(r).size() > 0)) {
      return false;
    }
  }
  return true;
}

GameSearch::GameSearch(const Structure& a, const Structure& b,
                       GameOptions options, const char* game)
    : a_(a),
      b_(b),
      options_(options),
      game_(game),
      sides_{BuildSide(a), BuildSide(b)},
      zobrist_(a.domain_size(), b.domain_size()),
      nullary_ok_(NullaryRelationsAgree(a, b)),
      mark_stride_(std::max(sides_[0].num_classes, sides_[1].num_classes)) {
  FMTK_CHECK(a.signature() == b.signature())
      << game << "s require equal signatures";
}

GameSearch::Side GameSearch::BuildSide(const Structure& s) {
  Side side;
  side.domain_size = s.domain_size();
  side.occ = BuildOccurrenceLists(s);
  side.swap_class = SwapClasses(s, side.occ, &side.num_classes);
  side.sig = ElementSignatures(s);
  side.buckets = BuildSignatureBuckets(side.sig);
  return side;
}

std::size_t GameSearch::ClearedMarks(int which, std::size_t count) {
  const std::size_t offset = (2 * (depth_ - 1) + which) * mark_stride_;
  std::fill_n(marks_.begin() + offset, count, 0);
  return offset;
}

bool GameSearch::SeedPosition(PositionState& position,
                              const PartialMap& initial) const {
  if (!nullary_ok_) {
    return false;
  }
  // Constants count as always-played pairs (textbook convention); a
  // mismatch, like any broken initial pair, loses for the duplicator
  // outright since the final map extends the initial one.
  for (std::size_t c = 0; c < a_.signature().constant_count(); ++c) {
    std::optional<Element> ca = a_.constant(c);
    std::optional<Element> cb = b_.constant(c);
    if (ca.has_value() != cb.has_value()) {
      return false;
    }
    if (ca.has_value() && !position.TryAdd(*ca, *cb)) {
      return false;
    }
  }
  for (const auto& [x, y] : initial) {
    if (!position.TryAdd(x, y)) {
      return false;
    }
  }
  return true;
}

Status GameSearch::NodeCapExceeded() const {
  return Status::ResourceExhausted(std::string(game_) + " search exceeded " +
                                   std::to_string(options_.max_nodes) +
                                   " positions");
}

}  // namespace game_engine
}  // namespace fmtk
