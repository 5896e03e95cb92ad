#include "structures/isomorphism.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "base/check.h"
#include "base/hash.h"
#include "structures/graph.h"

namespace fmtk {

namespace {

// Builds a functional, injective map from the pair list; nullopt when the
// pairs conflict.
std::optional<std::unordered_map<Element, Element>> BuildFunctionalMap(
    const PartialMap& pairs) {
  std::unordered_map<Element, Element> forward;
  std::unordered_map<Element, Element> backward;
  for (const auto& [a, b] : pairs) {
    auto fit = forward.find(a);
    if (fit != forward.end()) {
      if (fit->second != b) {
        return std::nullopt;  // Not a function.
      }
      continue;
    }
    auto bit = backward.find(b);
    if (bit != backward.end()) {
      return std::nullopt;  // Not injective.
    }
    forward.emplace(a, b);
    backward.emplace(b, a);
  }
  return forward;
}

// Enumerates all tuples of the given arity over `domain` and calls `fn`;
// stops early when fn returns false. Returns whether all calls succeeded.
template <typename Fn>
bool ForEachTupleOver(const std::vector<Element>& domain, std::size_t arity,
                      const Fn& fn) {
  Tuple t(arity, 0);
  std::vector<std::size_t> odometer(arity, 0);
  if (arity == 0) {
    return fn(t);
  }
  if (domain.empty()) {
    return true;
  }
  for (std::size_t i = 0; i < arity; ++i) {
    t[i] = domain[0];
  }
  while (true) {
    if (!fn(t)) {
      return false;
    }
    std::size_t pos = arity;
    while (pos > 0) {
      --pos;
      if (odometer[pos] + 1 < domain.size()) {
        ++odometer[pos];
        t[pos] = domain[odometer[pos]];
        break;
      }
      odometer[pos] = 0;
      t[pos] = domain[0];
      if (pos == 0) {
        return true;
      }
    }
  }
}

// Per-element atomic invariant: counts of tuple occurrences per
// (relation, position), plus a marker for tuples with repeats.
std::vector<std::size_t> AtomicInvariant(const Structure& s, Element e) {
  std::vector<std::size_t> inv;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const std::size_t arity = s.signature().relation(r).arity;
    std::vector<std::size_t> per_position(arity, 0);
    std::size_t with_repeat = 0;
    for (const auto t : s.relation(r).rows()) {
      bool contains = false;
      for (std::size_t i = 0; i < arity; ++i) {
        if (t[i] == e) {
          ++per_position[i];
          contains = true;
        }
      }
      if (contains) {
        bool repeat = false;
        for (std::size_t i = 0; i < arity && !repeat; ++i) {
          for (std::size_t j = i + 1; j < arity; ++j) {
            if (t[i] == t[j]) {
              repeat = true;
              break;
            }
          }
        }
        if (repeat) {
          ++with_repeat;
        }
      }
    }
    inv.insert(inv.end(), per_position.begin(), per_position.end());
    inv.push_back(with_repeat);
  }
  return inv;
}

// Backtracking isomorphism search state.
class IsoSearch {
 public:
  IsoSearch(const Structure& a, const Structure& b)
      : a_(a),
        b_(b),
        n_(a.domain_size()),
        forward_(a.domain_size(), kUnmapped),
        backward_(b.domain_size(), kUnmapped),
        occ_a_(BuildOccurrenceLists(a)),
        occ_b_(BuildOccurrenceLists(b)) {
    for (const RelationSymbol& r : a.signature().relations()) {
      scratch_.resize(std::max(scratch_.size(), r.arity));
    }
    // Invariant classes for candidate pruning.
    std::map<std::vector<std::size_t>, std::size_t> classes;
    auto class_of = [&classes](const std::vector<std::size_t>& inv) {
      return classes.emplace(inv, classes.size()).first->second;
    };
    class_a_.resize(a.domain_size());
    for (Element e = 0; e < a.domain_size(); ++e) {
      class_a_[e] = class_of(AtomicInvariant(a, e));
    }
    class_b_.resize(b.domain_size());
    for (Element e = 0; e < b.domain_size(); ++e) {
      class_b_[e] = class_of(AtomicInvariant(b, e));
    }
    adjacency_a_ = GaifmanAdjacency(a);
  }

  // Assigns a -> b if consistent; returns false (and leaves state clean)
  // otherwise.
  bool Assign(Element a, Element b) {
    if (forward_[a] != kUnmapped || backward_[b] != kUnmapped) {
      return forward_[a] == b && backward_[b] == a;
    }
    if (class_a_[a] != class_b_[b]) {
      return false;
    }
    forward_[a] = b;
    backward_[b] = a;
    if (CheckLocal(a, b)) {
      trail_.push_back({a, b});
      return true;
    }
    forward_[a] = kUnmapped;
    backward_[b] = kUnmapped;
    return false;
  }

  void UndoTo(std::size_t mark) {
    while (trail_.size() > mark) {
      auto [a, b] = trail_.back();
      trail_.pop_back();
      forward_[a] = kUnmapped;
      backward_[b] = kUnmapped;
    }
  }

  std::size_t Mark() const { return trail_.size(); }

  bool Solve() {
    // Order: BFS from already-assigned elements over the Gaifman graph, so
    // new assignments are maximally constrained; unreachable elements last.
    std::vector<Element> order = SearchOrder();
    return Extend(order, 0);
  }

 private:
  std::vector<Element> SearchOrder() const {
    std::vector<Element> order;
    std::vector<bool> seen(n_, false);
    std::vector<Element> frontier;
    for (const auto& [a, b] : trail_) {
      (void)b;
      seen[a] = true;
      frontier.push_back(a);
    }
    std::size_t head = 0;
    auto push_component = [&](Element start) {
      if (seen[start]) {
        return;
      }
      seen[start] = true;
      order.push_back(start);
      frontier.push_back(start);
    };
    while (true) {
      while (head < frontier.size()) {
        Element v = frontier[head++];
        for (Element w : adjacency_a_[v]) {
          if (!seen[w]) {
            seen[w] = true;
            order.push_back(w);
            frontier.push_back(w);
          }
        }
      }
      Element next = kUnmapped;
      for (Element v = 0; v < n_; ++v) {
        if (!seen[v]) {
          next = v;
          break;
        }
      }
      if (next == kUnmapped) {
        break;
      }
      push_component(next);
    }
    return order;
  }

  bool Extend(const std::vector<Element>& order, std::size_t index) {
    while (index < order.size() && forward_[order[index]] != kUnmapped) {
      ++index;
    }
    if (index == order.size()) {
      return true;
    }
    Element a = order[index];
    for (Element b = 0; b < b_.domain_size(); ++b) {
      if (backward_[b] != kUnmapped) {
        continue;
      }
      std::size_t mark = Mark();
      if (Assign(a, b) && Extend(order, index + 1)) {
        return true;
      }
      UndoTo(mark);
    }
    return false;
  }

  // Checks all tuples touching the new pair that are fully mapped, in both
  // directions.
  bool CheckLocal(Element a, Element b) {
    for (std::size_t r = 0; r < occ_a_.size(); ++r) {
      const std::size_t arity = a_.relation(r).arity();
      if (!MappedRowsIn(occ_a_[r][a], arity, forward_, b_.relation(r),
                        scratch_.data()) ||
          !MappedRowsIn(occ_b_[r][b], arity, backward_, a_.relation(r),
                        scratch_.data())) {
        return false;
      }
    }
    return true;
  }

  const Structure& a_;
  const Structure& b_;
  std::size_t n_;
  std::vector<Element> forward_;
  std::vector<Element> backward_;
  OccurrenceLists occ_a_;
  OccurrenceLists occ_b_;
  // One row of the widest relation, the image buffer of CheckLocal.
  std::vector<Element> scratch_;
  std::vector<std::size_t> class_a_;
  std::vector<std::size_t> class_b_;
  Adjacency adjacency_a_;
  std::vector<std::pair<Element, Element>> trail_;
};

}  // namespace

OccurrenceLists BuildOccurrenceLists(const Structure& s) {
  OccurrenceLists occ(s.signature().relation_count());
  Tuple sorted;
  for (std::size_t r = 0; r < occ.size(); ++r) {
    occ[r].resize(s.domain_size());
    for (const auto t : s.relation(r).rows()) {
      sorted.assign(t.begin(), t.end());
      std::sort(sorted.begin(), sorted.end());
      Element last = kUnmapped;
      for (Element e : sorted) {
        if (e != last) {
          occ[r][e].push_back(t.data());
          last = e;
        }
      }
    }
  }
  return occ;
}

std::vector<std::size_t> AtomicInvariantOf(const Structure& s, Element e) {
  return AtomicInvariant(s, e);
}

bool IsPartialIsomorphism(const Structure& a, const Structure& b,
                          const PartialMap& map) {
  std::optional<std::unordered_map<Element, Element>> forward =
      BuildFunctionalMap(map);
  if (!forward.has_value()) {
    return false;
  }
  for (const auto& [x, y] : *forward) {
    if (x >= a.domain_size() || y >= b.domain_size()) {
      return false;
    }
  }
  // Constants present in the map must correspond.
  const std::size_t num_constants =
      std::min(a.signature().constant_count(), b.signature().constant_count());
  for (std::size_t c = 0; c < num_constants; ++c) {
    std::optional<Element> ca = a.constant(c);
    std::optional<Element> cb = b.constant(c);
    if (ca.has_value() && cb.has_value()) {
      auto it = forward->find(*ca);
      if (it != forward->end() && it->second != *cb) {
        return false;
      }
    }
  }
  std::vector<Element> domain;
  domain.reserve(forward->size());
  for (const auto& [x, y] : *forward) {
    (void)y;
    domain.push_back(x);
  }
  const std::size_t num_relations = std::min(
      a.signature().relation_count(), b.signature().relation_count());
  for (std::size_t r = 0; r < num_relations; ++r) {
    const std::size_t arity = a.signature().relation(r).arity;
    if (arity != b.signature().relation(r).arity) {
      return false;
    }
    bool preserved = ForEachTupleOver(domain, arity, [&](const Tuple& t) {
      Tuple mapped;
      mapped.reserve(arity);
      for (Element e : t) {
        mapped.push_back(forward->at(e));
      }
      return a.relation(r).Contains(t) == b.relation(r).Contains(mapped);
    });
    if (!preserved) {
      return false;
    }
  }
  return true;
}

bool AreIsomorphic(const Structure& a, const Structure& b,
                   const Tuple& a_distinguished,
                   const Tuple& b_distinguished) {
  if (!(a.signature() == b.signature())) {
    return false;
  }
  if (a.domain_size() != b.domain_size()) {
    return false;
  }
  if (a_distinguished.size() != b_distinguished.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.signature().relation_count(); ++r) {
    if (a.relation(r).size() != b.relation(r).size()) {
      return false;
    }
  }
  IsoSearch search(a, b);
  for (std::size_t i = 0; i < a_distinguished.size(); ++i) {
    if (a_distinguished[i] >= a.domain_size() ||
        b_distinguished[i] >= b.domain_size()) {
      return false;
    }
    if (!search.Assign(a_distinguished[i], b_distinguished[i])) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.signature().constant_count(); ++c) {
    std::optional<Element> ca = a.constant(c);
    std::optional<Element> cb = b.constant(c);
    if (ca.has_value() != cb.has_value()) {
      return false;
    }
    if (ca.has_value() && !search.Assign(*ca, *cb)) {
      return false;
    }
  }
  return search.Solve();
}

std::size_t IsomorphismInvariant(const Structure& s,
                                 const Tuple& distinguished) {
  const std::size_t n = s.domain_size();
  // Colors are content hashes so they are canonical across structures
  // (sequential class ids would depend on element enumeration order).
  // Gaifman-distance profiles are folded in because plain 1-WL cannot
  // separate regular graphs (e.g. one 6-cycle vs two 3-cycles).
  Adjacency adjacency = GaifmanAdjacency(s);
  std::vector<std::size_t> color(n);
  for (Element e = 0; e < n; ++e) {
    std::size_t h = 0x517cc1b727220a95ULL;
    for (std::size_t v : AtomicInvariant(s, e)) {
      HashCombine(h, v);
    }
    for (std::size_t i = 0; i < distinguished.size(); ++i) {
      if (distinguished[i] == e) {
        HashCombine(h, i + 1);
      }
    }
    std::vector<std::size_t> profile = BfsDistances(adjacency, {e});
    std::sort(profile.begin(), profile.end());
    for (std::size_t d : profile) {
      HashCombine(h, d);
    }
    color[e] = h;
  }
  // 1-WL refinement over the Gaifman graph. Refining a partition of n
  // elements stabilizes within n rounds; hashed colors alone make detecting
  // that unreliable, so stabilization is checked exactly on the round's
  // per-element signature vectors (color, sorted neighbor colors): the
  // partition is stable once equal-color elements share identical vectors.
  // The remaining rounds then run on the class quotient — after
  // stabilization every class evolves uniformly and classes are exactly
  // the color values, so one representative per class reproduces the full
  // per-element iteration bit for bit, hash collisions included.
  std::size_t round = 0;
  bool stable = false;
  std::vector<std::vector<std::size_t>> sigs(n);
  while (round < n && !stable) {
    for (Element e = 0; e < n; ++e) {
      std::vector<std::size_t>& sig = sigs[e];
      sig.clear();
      sig.reserve(adjacency[e].size() + 1);
      sig.push_back(color[e]);
      for (Element w : adjacency[e]) {
        sig.push_back(color[w]);
      }
      std::sort(sig.begin() + 1, sig.end());
    }
    std::unordered_map<std::size_t, Element> rep_of;
    stable = true;
    for (Element e = 0; e < n && stable; ++e) {
      auto [it, inserted] = rep_of.try_emplace(color[e], e);
      if (!inserted && sigs[e] != sigs[it->second]) {
        stable = false;
      }
    }
    if (stable) {
      break;  // this round and the remaining ones run on the quotient
    }
    for (Element e = 0; e < n; ++e) {
      std::size_t h = sigs[e][0];
      for (std::size_t i = 1; i < sigs[e].size(); ++i) {
        HashCombine(h, sigs[e][i]);
      }
      color[e] = h;
    }
    ++round;
  }
  if (round < n) {
    // Quotient fast-forward. Classes are the distinct color values at
    // stabilization; the color<->class bijection there makes every
    // member's neighbor-class multiset equal to its representative's, so
    // iterating per class computes exactly the per-element values.
    std::unordered_map<std::size_t, std::size_t> class_of_color;
    std::vector<std::size_t> class_color;
    std::vector<Element> rep;
    std::vector<std::size_t> class_of(n);
    for (Element e = 0; e < n; ++e) {
      auto [it, inserted] =
          class_of_color.try_emplace(color[e], class_color.size());
      if (inserted) {
        class_color.push_back(color[e]);
        rep.push_back(e);
      }
      class_of[e] = it->second;
    }
    const std::size_t k = class_color.size();
    std::vector<std::vector<std::size_t>> neighbor_classes(k);
    for (std::size_t c = 0; c < k; ++c) {
      neighbor_classes[c].reserve(adjacency[rep[c]].size());
      for (Element w : adjacency[rep[c]]) {
        neighbor_classes[c].push_back(class_of[w]);
      }
    }
    std::vector<std::size_t> neighbor_colors;
    for (; round < n; ++round) {
      std::vector<std::size_t> next(k);
      for (std::size_t c = 0; c < k; ++c) {
        neighbor_colors.clear();
        for (std::size_t nc : neighbor_classes[c]) {
          neighbor_colors.push_back(class_color[nc]);
        }
        std::sort(neighbor_colors.begin(), neighbor_colors.end());
        std::size_t h = class_color[c];
        for (std::size_t cc : neighbor_colors) {
          HashCombine(h, cc);
        }
        next[c] = h;
      }
      class_color = std::move(next);
    }
    for (Element e = 0; e < n; ++e) {
      color[e] = class_color[class_of[e]];
    }
  }
  // Hash: domain size, relation sizes, sorted color multiset, and the colors
  // of the distinguished positions in order.
  std::size_t seed = n;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    HashCombine(seed, s.relation(r).size());
  }
  std::vector<std::size_t> sorted_colors = color;
  std::sort(sorted_colors.begin(), sorted_colors.end());
  for (std::size_t c : sorted_colors) {
    HashCombine(seed, c);
  }
  for (Element e : distinguished) {
    HashCombine(seed, e < n ? color[e] : static_cast<std::size_t>(-1));
  }
  return seed;
}

}  // namespace fmtk
