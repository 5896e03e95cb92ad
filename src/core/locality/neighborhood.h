#ifndef FMTK_CORE_LOCALITY_NEIGHBORHOOD_H_
#define FMTK_CORE_LOCALITY_NEIGHBORHOOD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "base/flat_hash.h"
#include "base/hash.h"
#include "structures/graph.h"
#include "structures/structure.h"

namespace fmtk {

/// B_r(ā): the elements at Gaifman distance <= r from any component of ā,
/// sorted ascending. `gaifman` must be GaifmanAdjacency(s).
std::vector<Element> Ball(const Adjacency& gaifman, const Tuple& center,
                          std::size_t radius);

/// N_r(s, ā): the substructure induced by B_r(ā), with ā as distinguished
/// elements (renumbered into the ball's numbering).
struct Neighborhood {
  Structure structure;
  Tuple distinguished;
};

Neighborhood NeighborhoodOf(const Structure& s, const Adjacency& gaifman,
                            const Tuple& center, std::size_t radius);

/// N ≅ N' respecting the distinguished tuples (h(ā_i) = b̄_i).
bool NeighborhoodsIsomorphic(const Neighborhood& a, const Neighborhood& b);

/// An exact canonical form of a neighborhood, serialized as a word vector:
/// two codes are equal iff the neighborhoods are isomorphic (respecting
/// distinguished tuples and constants). Computed by iterative color
/// refinement plus individualization-refinement backtracking; comparing
/// codes replaces the exact AreIsomorphic search with a vector compare.
using CanonicalCode = std::vector<std::uint32_t>;
using CanonicalCodeHash = VectorHash<std::uint32_t>;

/// Computes the canonical code of `n`, or nullopt when the neighborhood is
/// too large (domain above an internal cap) or too symmetric (the
/// individualization search exceeds its refinement-pass budget — e.g. near-
/// complete graphs, whose automorphism groups blow the branch count up).
/// Both bail-outs depend only on the isomorphism class, never on the
/// element numbering, so isomorphic neighborhoods either all produce codes
/// or all fall back to the invariant-bucket path — an index never sees one
/// class split across the two regimes.
std::optional<CanonicalCode> CanonicalNeighborhoodCode(const Neighborhood& n);

/// Interns isomorphism types of neighborhoods: equal ids iff isomorphic
/// (exact). Ids are comparable across structures through the same index
/// instance, and the index is the only place a neighborhood gets one.
///
/// Resolution has three levels, each strictly cheaper than the next:
/// (1) literal content: the exact-content cache (plus a caller's PassMemo)
/// answers identical neighborhoods, which histograms produce many of (every
/// interior point of a path), with no isomorphism work; (2) the canonical
/// code, one hash probe resolving any isomorphic neighborhood exactly;
/// (3) for neighborhoods the canonicalizer declines, buckets keyed by
/// IsomorphismInvariant whose entries carry a cheap atomic-signature
/// pre-filter in front of the exact AreIsomorphic test. Level (3) with
/// canonicalization disabled is the differential oracle the tests compare
/// the code path against.
///
/// TypeOf runs the levels on a materialized neighborhood. The locality
/// engine splits them so a repeated ball is never materialized:
/// FindContent is level (1) on a ball known only by its content hash and a
/// streaming comparison, and Intern runs levels (2) and (3) on the
/// neighborhood materialized after a miss. So every resolved neighborhood
/// is counted exactly once, as an exact hit or by Intern.
class NeighborhoodTypeIndex {
 public:
  using TypeId = std::size_t;

 private:
  // Content hash -> neighborhoods with that hash and their types.
  using ContentRows =
      FlatU64Map<std::vector<std::pair<const Neighborhood*, TypeId>>>;

 public:
  struct Options {
    /// Caps the entries of the exact-content cache, the memory a long-lived
    /// index keeps per literal content; correctness does not depend on it
    /// (missed contents fall through to the other levels).
    std::size_t max_exemplars = 4096;
    /// Disable to force every miss through the invariant-bucket path — the
    /// seed behavior, kept as the differential oracle.
    bool use_canonical_codes = true;
  };

  /// The literal contents one pass over many balls (a histogram, a Gaifman
  /// search) resolved after the exact-content cache was full, so the pass
  /// still answers each repeated content at level (1). Uncapped; freed with
  /// the pass.
  class PassMemo {
   public:
    /// Content hash of the neighborhood this pass resolved last.
    std::optional<std::size_t> last_hash() const { return last_hash_; }

   private:
    friend class NeighborhoodTypeIndex;
    std::deque<Neighborhood> contents_;
    ContentRows rows_;
    std::optional<std::size_t> last_hash_;
  };

  NeighborhoodTypeIndex() = default;
  explicit NeighborhoodTypeIndex(const Options& options) : options_(options) {}

  TypeId TypeOf(const Neighborhood& n);

  /// Level (1) without a materialized neighborhood: the type of the cached
  /// or memoized neighborhood with content hash `hash` for which
  /// `matches(const Neighborhood&)` confirms identical literal content.
  /// Counts an exact hit.
  template <typename Matches>
  std::optional<TypeId> FindContent(PassMemo& memo, std::size_t hash,
                                    const Matches& matches) {
    for (const ContentRows* rows : {&exact_cache_, &memo.rows_}) {
      if (const auto* row = rows->Find(hash)) {
        for (const auto& [content, id] : *row) {
          if (matches(*content)) {
            ++stats_.exact_hits;
            memo.last_hash_ = hash;
            return id;
          }
        }
      }
    }
    return std::nullopt;
  }

  /// Levels (2) and (3) for a neighborhood FindContent missed; `hash` is
  /// its content hash. Keeps `n` findable by content: in the cache while it
  /// has room, else in `memo`.
  TypeId Intern(PassMemo& memo, Neighborhood&& n, std::size_t hash);

  /// Number of distinct types seen.
  std::size_t size() const { return reps_.size(); }

  /// A representative neighborhood of a type. The reference stays valid for
  /// the lifetime of the index (representatives live in a deque, which
  /// never relocates elements as it grows).
  const Neighborhood& representative(TypeId id) const;

  /// Number of distinct content hashes in the exact-content cache, at most
  /// Options::max_exemplars (regression guard for a seed bug that grew
  /// empty rows without bound once the cap was hit).
  std::size_t exact_cache_rows() const { return exact_cache_.size(); }

  /// Counters, per resolved neighborhood. In the canonical regime each
  /// neighborhood the canonicalizer accepts is an exact hit or one
  /// canonicalization, and the types added are canon_codes - canon_hits.
  struct Stats {
    std::uint64_t exact_hits = 0;         // answered by literal content
    std::uint64_t canon_codes = 0;        // canonicalizations performed
    std::uint64_t canon_hits = 0;         // codes that named a known type
    std::uint64_t signature_rejects = 0;  // pre-filtered bucket candidates
    std::uint64_t iso_tests = 0;          // exact AreIsomorphic runs
  };
  const Stats& stats() const { return stats_; }

 private:
  struct BucketEntry {
    TypeId id;
    // Cheap isomorphism-invariant signature of the representative; a
    // mismatch disproves isomorphism without the exact search.
    std::vector<std::size_t> signature;
  };

  // TypeId -> representative, indexed positionally. A representative
  // doubles as its content's cache entry.
  std::deque<Neighborhood> reps_;
  // Canonical code -> type. Exact: no verification needed on a hit.
  FlatHashMap<CanonicalCode, TypeId, CanonicalCodeHash> code_map_;
  // IsomorphismInvariant hash -> candidate types (fallback regime only).
  FlatU64Map<std::vector<BucketEntry>> buckets_;
  // Level (1): every resolved content while the cache has room. Entries
  // point into reps_ or exemplars_ (non-representative contents).
  std::deque<Neighborhood> exemplars_;
  ContentRows exact_cache_;
  std::size_t cached_ = 0;  // entries in exact_cache_
  Options options_;
  Stats stats_;
};

/// Multiset of the r-neighborhood types of all single points of `s`
/// (type id -> count). The survey's ⇆r comparisons reduce to comparing
/// these histograms.
///
/// One-shot convenience over a throwaway engine context; loops that
/// histogram the same structure repeatedly (Hanf comparisons, threshold
/// searches) should hold a LocalityEngine and call its TypeHistogram, which
/// reuses the Gaifman adjacency and BFS scratch across calls.
std::map<NeighborhoodTypeIndex::TypeId, std::size_t>
NeighborhoodTypeHistogram(const Structure& s, std::size_t radius,
                          NeighborhoodTypeIndex& index);

}  // namespace fmtk

#endif  // FMTK_CORE_LOCALITY_NEIGHBORHOOD_H_
