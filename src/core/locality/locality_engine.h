#ifndef FMTK_CORE_LOCALITY_LOCALITY_ENGINE_H_
#define FMTK_CORE_LOCALITY_LOCALITY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/locality/neighborhood.h"
#include "structures/structure.h"

namespace fmtk {

/// BFS counters for the locality engine, in the style of EvalStats /
/// GameStats / DatalogStats. Deterministic: a function of the structure and
/// the calls. Type-resolution work is counted by NeighborhoodTypeIndex.
struct LocalityStats {
  /// Balls extracted by a fresh bounded BFS (radius-incremental extensions
  /// are counted under frontier_reuses instead).
  std::uint64_t balls_extracted = 0;
  /// Nodes discovered across all bounded-BFS work (stamped first visits).
  std::uint64_t bfs_node_visits = 0;
  /// Balls grown from the saved frontier of the previous radius instead of
  /// being recomputed from scratch.
  std::uint64_t frontier_reuses = 0;

  LocalityStats& operator+=(const LocalityStats& other);

  /// e.g. "balls_extracted=12 bfs_node_visits=40 frontier_reuses=0".
  std::string ToString() const;
};

class LocalityEngine;

/// Per-element saved balls and frontiers for radius-incremental histogram
/// sweeps: HistogramAt(r+1) extends each ball by one BFS layer from the
/// frontier saved at radius r — every node and edge is still visited at
/// most once across the whole sweep, so a loop over radii 0..R costs what a
/// single radius-R histogram pass costs in BFS work. Radii must be
/// nondecreasing. Valid only while its engine (and the engine's structure)
/// is alive.
class NeighborhoodSweep {
 public:
  std::size_t radius() const { return radius_; }

  /// The r-neighborhood type histogram at `radius` (>= the current radius).
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> HistogramAt(
      std::size_t radius, NeighborhoodTypeIndex& index);

  /// The current-radius ball of `v`, sorted ascending.
  const std::vector<Element>& BallOf(Element v) const;

 private:
  friend class LocalityEngine;
  explicit NeighborhoodSweep(const LocalityEngine* engine);

  const LocalityEngine* engine_;
  std::size_t radius_ = 0;
  std::vector<std::vector<Element>> balls_;      // sorted
  std::vector<std::vector<Element>> frontiers_;  // nodes at distance radius_
};

/// Shared per-structure context for the locality toolbox: the Gaifman
/// adjacency CSR-packed once, tuple-occurrence lists for O(|ball|)
/// neighborhood materialization, and generation-stamped BFS scratch so ball
/// extraction touches only O(|ball|) memory with no per-call O(n)
/// allocations. The referenced structure must outlive the engine.
///
/// Thread-safety: const methods are safe to call from one thread at a time
/// (they share the internal scratch and counters).
class LocalityEngine {
 public:
  explicit LocalityEngine(const Structure& s);

  const Structure& structure() const { return *s_; }
  std::size_t domain_size() const { return domain_size_; }

  /// B_r(ā), sorted ascending. Bounded BFS over the cached adjacency.
  std::vector<Element> Ball(const Tuple& center, std::size_t radius) const;

  /// N_r(ā): materialized from occurrence lists in O(|ball| + local tuples)
  /// rather than a scan of every tuple of the structure. Equal (as a
  /// structure, set semantics) to NeighborhoodOf on the same inputs.
  Neighborhood NeighborhoodAt(const Tuple& center, std::size_t radius) const;

  /// Multiset of the r-neighborhood types of all single points, resolved
  /// by TypeAt's path in element order, so new TypeIds follow the first
  /// realizing element.
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> TypeHistogram(
      std::size_t radius, NeighborhoodTypeIndex& index) const;

  /// The type of N_r(center) in `index`. The ball is probed by content
  /// (NeighborhoodTypeIndex::FindContent) with its would-be induced tuples
  /// streamed off the occurrence lists, and materialized only on a miss.
  /// Calls of one pass (the Gaifman search) share `memo`.
  NeighborhoodTypeIndex::TypeId TypeAt(
      const Tuple& center, std::size_t radius, NeighborhoodTypeIndex& index,
      NeighborhoodTypeIndex::PassMemo& memo) const;

  /// Ball-size histograms for every radius r = 0..radius in one pass:
  /// result[r][s] = number of elements v with |B_r(v)| == s. Cheaper than a
  /// type histogram (no canonicalization — size is the coarsest
  /// neighborhood invariant, a quick first look at how homogeneous a
  /// structure is before paying for types). Per element the BFS marks a
  /// word-packed visited bitset and each level's size is one vectorized
  /// PopcountWords sweep over the word range the ball has touched (AVX2
  /// nibble-LUT under the simd.h dispatch, scalar popcount under
  /// FMTK_SIMD=0); the reset between elements clears only the ball's own
  /// bits, so the whole pass costs O(ball edges + touched words), not
  /// O(n^2/64).
  std::vector<std::map<std::size_t, std::size_t>> BallSizeHistogram(
      std::size_t radius) const;

  /// A radius-incremental sweep positioned at radius 0.
  NeighborhoodSweep NewSweep() const;

  /// MaxDegree(structure, rel_index), computed once per engine and cached;
  /// the BNDP profiler calls this once per observation.
  std::size_t CachedMaxDegree(std::size_t rel_index) const;

  const LocalityStats& stats() const { return stats_; }

 private:
  friend class NeighborhoodSweep;

  struct Scratch {
    explicit Scratch(std::size_t n)
        : stamp(n, 0), local_stamp(n, 0), local(n, 0) {}
    std::vector<std::uint64_t> stamp;
    std::uint64_t generation = 0;
    std::vector<Element> queue;  // discovery order of the current ball
    // O(1) global element -> local ball index, filled by IndexBall for the
    // most recently indexed ball (stamped, so no clearing between balls).
    std::vector<std::uint64_t> local_stamp;
    std::uint64_t local_generation = 0;
    std::vector<std::uint32_t> local;
  };

  // Publishes `ball` (sorted) as the current ball of `scratch`: afterwards
  // the streaming probes and MaterializeFromBall resolve membership and
  // local indices in O(1) instead of a binary search per tuple component.
  static void IndexBall(Scratch& scratch, const std::vector<Element>& ball);

  // Bounded BFS from `center` into `ball` (sorted on return). When
  // `frontier` is non-null it receives the nodes at distance exactly
  // `radius` (discovery order) — the seed for a later one-layer extension.
  void BallInto(Scratch& scratch, const Tuple& center, std::size_t radius,
                std::vector<Element>& ball, std::vector<Element>* frontier,
                LocalityStats& stats) const;

  // Grows a sorted ball by one BFS layer from `frontier` (replaced by the
  // new layer). Members of `ball` must be exactly the nodes within the
  // current radius.
  void ExtendBall(Scratch& scratch, std::vector<Element>& ball,
                  std::vector<Element>& frontier, LocalityStats& stats) const;

  // Induced substructure of a sorted ball with `center` distinguished.
  // `scratch` must have the ball indexed (IndexBall).
  Neighborhood MaterializeFromBall(Scratch& scratch,
                                   const std::vector<Element>& ball,
                                   const Tuple& center) const;

  // Streaming content probes computed directly from a sorted ball + center
  // via the occurrence lists, with no materialization: BallContentHash
  // equals the content hash NeighborhoodTypeIndex computes for the
  // neighborhood MaterializeFromBall would build, and BallContentMatches
  // compares that would-be neighborhood against `n` tuple-by-tuple in
  // insertion order.
  // `scratch` must have the ball indexed (IndexBall).
  std::size_t BallContentHash(Scratch& scratch,
                              const std::vector<Element>& ball,
                              const Tuple& center) const;
  bool BallContentMatches(Scratch& scratch, const std::vector<Element>& ball,
                          const Tuple& center, const Neighborhood& n) const;

  // The one path from a ball to its type: the previous answer's content
  // hash, then this ball's, then materialize and intern. `ball` is the
  // sorted B_r(center).
  NeighborhoodTypeIndex::TypeId TypeOfBall(
      const std::vector<Element>& ball, const Tuple& center,
      NeighborhoodTypeIndex& index,
      NeighborhoodTypeIndex::PassMemo& memo) const;

  // TypeHistogram / NeighborhoodSweep::HistogramAt: balls come from
  // `stored_balls` or from a fresh bounded BFS at `radius`.
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> Histogram(
      std::size_t radius,
      const std::vector<std::vector<Element>>* stored_balls,
      NeighborhoodTypeIndex& index) const;

  const Structure* s_;
  std::size_t domain_size_;
  // Gaifman adjacency, CSR-packed: neighbors of v are
  // csr_neighbors_[csr_offsets_[v] .. csr_offsets_[v + 1]).
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<Element> csr_neighbors_;
  // Per relation: CSR of tuple indices by member element, each tuple listed
  // once per *distinct* member (repeated components recorded once).
  struct Occurrences {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> tuple_index;
  };
  std::vector<Occurrences> occurrences_;
  mutable std::vector<std::optional<std::size_t>> max_degree_cache_;
  mutable Scratch scratch_;
  mutable LocalityStats stats_;
};

}  // namespace fmtk

#endif  // FMTK_CORE_LOCALITY_LOCALITY_ENGINE_H_
