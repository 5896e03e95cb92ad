#include "core/locality/gaifman_local.h"

#include <cstddef>

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "core/locality/neighborhood.h"
#include "structures/isomorphism.h"

namespace fmtk {

namespace {

// Enumerates all tuples in {0..n-1}^m.
void AllTuples(std::size_t n, std::size_t m, std::vector<Tuple>& out) {
  Tuple t(m, 0);
  if (m == 0 || n == 0) {
    return;
  }
  while (true) {
    out.push_back(t);
    std::size_t pos = m;
    while (pos > 0) {
      --pos;
      if (t[pos] + 1 < n) {
        ++t[pos];
        break;
      }
      t[pos] = 0;
      if (pos == 0) {
        return;
      }
    }
  }
}

}  // namespace

Result<std::optional<GaifmanViolation>> FindGaifmanViolation(
    const Structure& s, const Relation& output, std::size_t radius) {
  LocalityEngine engine(s);
  return FindGaifmanViolation(engine, output, radius);
}

Result<std::optional<GaifmanViolation>> FindGaifmanViolation(
    const LocalityEngine& engine, const Relation& output, std::size_t radius) {
  const Structure& s = engine.structure();
  const std::size_t m = output.arity();
  if (m == 0) {
    return Status::InvalidArgument(
        "Gaifman locality concerns m-ary queries with m > 0");
  }
  for (const auto t : output.rows()) {
    for (Element e : t) {
      if (e >= s.domain_size()) {
        return Status::InvalidArgument(
            "output relation contains elements outside the structure");
      }
    }
  }
  std::vector<Tuple> tuples;
  AllTuples(s.domain_size(), m, tuples);
  // Key each tuple's neighborhood by canonical code: isomorphic tuples land
  // in one slot, and the earliest in-output / not-in-output representatives
  // per slot reproduce exactly the pair the seed's pairwise bucket scan
  // reported first. Canonicalizability is isomorphism-invariant, so a slot
  // never has an isomorphic partner hiding in the fallback pool.
  struct Slot {
    std::optional<Tuple> in_rep;
    std::optional<Tuple> out_rep;
  };
  std::unordered_map<CanonicalCode, Slot, CanonicalCodeHash> coded;
  // Fallback pool for uncanonicalizable neighborhoods: invariant buckets
  // plus the exact pairwise test, as in the seed.
  struct Entry {
    Tuple tuple;
    const Neighborhood* neighborhood;  // into the memo, stable
    bool in_output;
  };
  std::unordered_map<std::size_t, std::vector<Entry>> buckets;
  // Shifted tuples of regular structures yield literally identical
  // neighborhoods; the memo dedupes them before materialization, and the
  // canonical code / bucket invariant — both functions of content — are
  // computed once per distinct content (a repeated canonicalization failure
  // would burn the whole pass budget again just to fail identically).
  LocalityEngine::ContentMemo memo;
  std::vector<std::optional<CanonicalCode>> entry_code;
  std::vector<std::size_t> entry_invariant;
  for (const Tuple& t : tuples) {
    const bool in_output = output.Contains(t);
    const LocalityEngine::DedupResult res =
        engine.DedupNeighborhoodAt(memo, t, radius);
    const Neighborhood& n = memo.exemplar(res.entry);
    if (res.was_new) {
      entry_code.push_back(engine.CodeOf(n));
      entry_invariant.push_back(
          entry_code.back().has_value()
              ? 0
              : IsomorphismInvariant(n.structure, n.distinguished));
    }
    const std::optional<CanonicalCode>& code = entry_code[res.entry];
    if (code.has_value()) {
      Slot& slot = coded[*code];
      std::optional<Tuple>& opposite = in_output ? slot.out_rep : slot.in_rep;
      if (opposite.has_value()) {
        return std::optional<GaifmanViolation>(
            in_output ? GaifmanViolation{t, *opposite}
                      : GaifmanViolation{*opposite, t});
      }
      std::optional<Tuple>& same = in_output ? slot.in_rep : slot.out_rep;
      if (!same.has_value()) {
        same = t;
      }
    } else {
      std::vector<Entry>& bucket = buckets[entry_invariant[res.entry]];
      for (const Entry& other : bucket) {
        // A shared memo entry means identical content — isomorphic without
        // the exact search.
        if (other.in_output != in_output &&
            (other.neighborhood == &n ||
             NeighborhoodsIsomorphic(*other.neighborhood, n))) {
          return std::optional<GaifmanViolation>(
              in_output ? GaifmanViolation{t, other.tuple}
                        : GaifmanViolation{other.tuple, t});
        }
      }
      bucket.push_back(Entry{t, &n, in_output});
    }
  }
  return std::optional<GaifmanViolation>(std::nullopt);
}

Result<std::optional<std::size_t>> GaifmanLocalRadiusOn(
    const Structure& s, const Relation& output, std::size_t max_radius) {
  LocalityEngine engine(s);
  for (std::size_t r = 0; r <= max_radius; ++r) {
    FMTK_ASSIGN_OR_RETURN(std::optional<GaifmanViolation> violation,
                          FindGaifmanViolation(engine, output, r));
    if (!violation.has_value()) {
      return std::optional<std::size_t>(r);
    }
  }
  return std::optional<std::size_t>(std::nullopt);
}

}  // namespace fmtk
