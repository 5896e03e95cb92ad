#ifndef FMTK_CORE_LOCALITY_GAIFMAN_LOCAL_H_
#define FMTK_CORE_LOCALITY_GAIFMAN_LOCAL_H_

#include <cstddef>
#include <optional>

#include "base/result.h"
#include "core/locality/locality_engine.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

/// A witness that an m-ary query output violates Gaifman-locality at radius
/// r on a structure: two m-tuples with isomorphic r-neighborhoods, one in
/// the output and one not (Definition 3.5's "cannot be distinguished"
/// broken).
struct GaifmanViolation {
  Tuple in_output;
  Tuple not_in_output;
};

/// Searches all |A|^m tuple pairs for a violation at radius r. `output`
/// must have arity >= 1; its tuples are over s's domain. Exponential in the
/// arity — meant for the small structures of locality experiments.
Result<std::optional<GaifmanViolation>> FindGaifmanViolation(
    const Structure& s, const Relation& output, std::size_t radius);

/// The same search over a prebuilt engine context — radius loops
/// (GaifmanLocalRadiusOn, the benches) reuse one Gaifman adjacency and BFS
/// scratch across every radius. Each tuple's neighborhood gets its type
/// through LocalityEngine::TypeAt and a NeighborhoodTypeIndex local to the
/// call, so isomorphic tuples share one slot instead of a pairwise scan.
Result<std::optional<GaifmanViolation>> FindGaifmanViolation(
    const LocalityEngine& engine, const Relation& output, std::size_t radius);

/// The least radius <= max_radius at which the output looks Gaifman-local
/// on this structure (no violation), or nullopt when even max_radius has
/// violations. For a query that is Gaifman-local with radius r*, every
/// structure reports a radius <= r*; a query like transitive closure keeps
/// producing violations at every radius as the structure grows — the E8
/// experiment.
Result<std::optional<std::size_t>> GaifmanLocalRadiusOn(
    const Structure& s, const Relation& output, std::size_t max_radius);

}  // namespace fmtk

#endif  // FMTK_CORE_LOCALITY_GAIFMAN_LOCAL_H_
