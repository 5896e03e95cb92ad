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

namespace internal {
/// Hash / equality of literal neighborhood content (same relations, tuples,
/// constants, and distinguished elements under the same numbering) — the
/// level the exact-content cache works at. Identical content trivially
/// implies isomorphism, and canonicalization is a function of content, so
/// content-equal neighborhoods share their canonical code. Exposed for the
/// locality engine, which dedupes by content before canonicalizing.
std::size_t NeighborhoodContentHash(const Neighborhood& n);
bool NeighborhoodContentEqual(const Neighborhood& a, const Neighborhood& b);
}  // namespace internal

/// Interns isomorphism types of neighborhoods: equal ids iff isomorphic
/// (exact). Ids are comparable across structures through the same index
/// instance.
///
/// TypeOf resolves through three levels, each strictly cheaper than the
/// next: (1) an exact-content cache answering literally identical
/// neighborhoods (histograms produce many — e.g. every interior point of a
/// path) without any isomorphism work; (2) a canonical-code probe — one
/// hash-map lookup resolving any isomorphic (not just identical)
/// neighborhood exactly; (3) for neighborhoods the canonicalizer declines,
/// buckets keyed by IsomorphismInvariant whose entries carry a cheap
/// atomic-signature pre-filter in front of the exact AreIsomorphic test.
/// Level (3) with canonicalization disabled is also the differential
/// oracle the tests compare the code path against.
class NeighborhoodTypeIndex {
 public:
  using TypeId = std::size_t;

  struct Options {
    /// Caps exemplar storage in the exact-content cache; correctness does
    /// not depend on it (missed contents fall through to the other levels).
    std::size_t max_exemplars = 4096;
    /// Disable to force every miss through the invariant-bucket path — the
    /// seed behavior, kept as the differential oracle.
    bool use_canonical_codes = true;
  };

  NeighborhoodTypeIndex() = default;
  explicit NeighborhoodTypeIndex(const Options& options) : options_(options) {}

  TypeId TypeOf(const Neighborhood& n);

  /// Interns a type by its precomputed canonical code. `exemplar` must be a
  /// neighborhood whose CanonicalNeighborhoodCode is `code`; it becomes the
  /// type representative when the code is new. Used by LocalityEngine's
  /// histogram, which computes every code first and then interns them in
  /// first-element order.
  struct Resolution {
    TypeId id;
    bool was_new;
  };
  Resolution Resolve(const CanonicalCode& code, const Neighborhood& exemplar);

  bool canonical_enabled() const { return options_.use_canonical_codes; }

  /// Number of distinct types seen.
  std::size_t size() const { return reps_.size(); }

  /// A representative neighborhood of a type. The reference stays valid for
  /// the lifetime of the index (representatives live in a deque, which
  /// never relocates elements as it grows).
  const Neighborhood& representative(TypeId id) const;

  /// Number of distinct content hashes with cached exemplars. Bounded by
  /// Options::max_exemplars plus the number of types (regression guard for
  /// a seed bug that grew empty rows without bound once the cap was hit).
  std::size_t exact_cache_rows() const { return exact_cache_.size(); }

  /// Counters for the TypeOf pipeline.
  struct Stats {
    std::uint64_t exact_hits = 0;         // answered by the content cache
    std::uint64_t canon_codes = 0;        // canonicalizations performed
    std::uint64_t canon_hits = 0;         // answered by a code probe
    std::uint64_t signature_rejects = 0;  // pre-filtered bucket candidates
    std::uint64_t iso_tests = 0;          // exact AreIsomorphic runs
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class LocalityEngine;

  // Levels (1) and (3) only — for callers that already know the
  // canonicalizer declines this neighborhood (re-attempting would burn the
  // whole refinement budget again just to fail identically).
  TypeId FallbackTypeOf(const Neighborhood& n);

  // Records `exemplar` (an instance of type `id`) in the exact-content
  // cache, so later literally-identical neighborhoods — including histogram
  // balls the engine probes before materializing — resolve with no
  // isomorphism work at all. Idempotent per content; capped by
  // max_exemplars. `content_hash` must be ContentHash(exemplar) (the engine
  // already streamed it off the ball). The engine registers every distinct
  // content of a histogram pass, not just the type representatives Resolve
  // stores, and hands over ownership — registration is the content's last
  // use in the merge.
  void RegisterContent(Neighborhood&& exemplar, TypeId id,
                       std::size_t content_hash);

  struct BucketEntry {
    TypeId id;
    // Cheap isomorphism-invariant signature of the representative; a
    // mismatch disproves isomorphism without the exact search.
    std::vector<std::size_t> signature;
  };

  // TypeId -> representative, indexed positionally.
  std::deque<Neighborhood> reps_;
  // Canonical code -> type. Exact: no verification needed on a hit.
  FlatHashMap<CanonicalCode, TypeId, CanonicalCodeHash> code_map_;
  // IsomorphismInvariant hash -> candidate types (fallback regime only).
  FlatU64Map<std::vector<BucketEntry>> buckets_;
  // Exact-content fast path: content hash -> exemplars seen with that
  // content and their resolved types. Representatives double as exemplars;
  // additional exemplar storage is capped, and past the cap lookups still
  // work but new contents are not cached.
  std::deque<Neighborhood> exemplars_;
  FlatU64Map<std::vector<std::pair<const Neighborhood*, TypeId>>>
      exact_cache_;
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
