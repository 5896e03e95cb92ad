#ifndef FMTK_CORE_ALGORITHMIC_BOUNDED_DEGREE_H_
#define FMTK_CORE_ALGORITHMIC_BOUNDED_DEGREE_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "logic/formula.h"
#include "structures/structure.h"

namespace fmtk {

/// The Hanf parameters the toolkit uses for a sentence of quantifier rank
/// n: locality radius r = (3^n - 1) / 2 (the Hanf locality rank bound,
/// Libkin EFMT Thm 4.24 / FSV) and threshold m = n + 1.
///
/// The radius bound is the textbook one. The threshold default grows with
/// the rank only; the fully conservative FSV threshold also grows with the
/// size of the largest r-ball (i.e., with the degree bound). The default is
/// validated by the test suite on the families the experiments use; pass an
/// explicit Options::threshold of rank * max-ball-size + 1 when working
/// with unfamiliar bounded-degree classes.
struct HanfParameters {
  std::size_t radius = 0;
  std::size_t threshold = 1;
};
HanfParameters HanfParametersForRank(std::size_t rank);

/// Theorem 3.11's evaluator: FO sentences over bounded-degree graphs with
/// (amortized) linear-time data complexity.
///
/// The precomputation of the theorem — deciding the sentence for every
/// possible threshold-vector of N(k,r) — is materialized lazily: the
/// evaluator computes the structure's r-neighborhood-type histogram (one
/// linear pass with constant-size ball extraction under a degree bound),
/// clips counts at the threshold, and looks the vector up in its cache. A
/// hit answers without touching the sentence again (Theorem 3.10
/// guarantees structures with equal clipped vectors agree); a miss falls
/// back to the O(n^q) model checker once and caches the verdict for the
/// entire equivalence class.
class BoundedDegreeEvaluator {
 public:
  struct Options {
    /// Override the radius / threshold derived from the quantifier rank.
    std::optional<std::size_t> radius;
    std::optional<std::size_t> threshold;
  };

  /// `sentence` must be a sentence (no free variables).
  static Result<BoundedDegreeEvaluator> Create(Formula sentence,
                                               Options options = {});

  /// Evaluates the sentence on `g`.
  Result<bool> Evaluate(const Structure& g);

  std::size_t cache_hits() const { return hits_; }
  std::size_t cache_misses() const { return misses_; }
  std::size_t radius() const { return radius_; }
  std::size_t threshold() const { return threshold_; }

  /// Accumulated locality-engine counters across all Evaluate calls.
  const LocalityStats& locality_stats() const { return locality_stats_; }

 private:
  BoundedDegreeEvaluator(Formula sentence, std::size_t radius,
                         std::size_t threshold);

  Formula sentence_;
  std::size_t radius_;
  std::size_t threshold_;
  LocalityStats locality_stats_;
  NeighborhoodTypeIndex index_;
  // Clipped histogram (type id -> min(count, threshold)) -> verdict.
  std::map<std::vector<std::pair<std::size_t, std::size_t>>, bool> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace fmtk

#endif  // FMTK_CORE_ALGORITHMIC_BOUNDED_DEGREE_H_
