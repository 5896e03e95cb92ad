#ifndef FMTK_STRUCTURES_ISOMORPHISM_H_
#define FMTK_STRUCTURES_ISOMORPHISM_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

/// A partial map between the domains of two structures, as a list of
/// (a, b) pairs. Repeated pairs are allowed; conflicting ones make the map
/// non-functional.
using PartialMap = std::vector<std::pair<Element, Element>>;

/// Marks an element that a partial map (as an element-indexed array)
/// leaves unmapped.
inline constexpr Element kUnmapped = static_cast<Element>(-1);

/// occ[r][e] = pointers into relation r's flat row store (arity elements
/// each) for the rows containing element e (each row listed once per
/// distinct element). Pointers stay valid while the structure is unmodified.
using OccurrenceLists =
    std::vector<std::vector<std::vector<const Element*>>>;
OccurrenceLists BuildOccurrenceLists(const Structure& s);

/// True when every row of `rows` (arity elements each) whose elements
/// `map` all maps (map[e] is e's image, or kUnmapped) has its image in
/// `target`. Each image is written to `scratch` (at least `arity`
/// elements) and probed in place, so the check allocates nothing. The
/// partial-isomorphism searches run it over the occurrence rows of a
/// newly mapped element, once per direction.
inline bool MappedRowsIn(const std::vector<const Element*>& rows,
                         std::size_t arity, const std::vector<Element>& map,
                         const Relation& target, Element* scratch) {
  for (const Element* row : rows) {
    bool complete = true;
    for (std::size_t i = 0; i < arity && complete; ++i) {
      scratch[i] = map[row[i]];
      complete = scratch[i] != kUnmapped;
    }
    if (complete && !target.ContainsRow(scratch)) {
      return false;
    }
  }
  return true;
}

/// Decides whether `map` is a partial isomorphism between `a` and `b` in the
/// survey's sense: the induced map must be well-defined and injective, and
/// for every relation symbol R and every tuple over dom(map),
/// R^A(t) iff R^B(map(t)).
///
/// Constants: if a constant is interpreted in both structures and its
/// interpretation appears in the map, the map must respect it. (EF-game
/// positions add constant pairs to the position explicitly, matching the
/// textbook convention that constants are always part of the position.)
bool IsPartialIsomorphism(const Structure& a, const Structure& b,
                          const PartialMap& map);

/// Decides A, ā ≅ B, b̄: existence of an isomorphism h with h(ā_i) = b̄_i.
/// With empty tuples this is plain structure isomorphism. Signatures must be
/// equal for a positive answer. Exact backtracking search with
/// invariant-based pruning; intended for the small structures that arise as
/// neighborhoods and game boards.
bool AreIsomorphic(const Structure& a, const Structure& b,
                   const Tuple& a_distinguished = {},
                   const Tuple& b_distinguished = {});

/// The atomic invariant of element `e` in `s`: tuple-occurrence counts per
/// (relation, position) plus a repeated-entry marker per relation. Equal
/// for elements matched by any isomorphism, and comparable across
/// structures over the same signature — the cheap per-element signature
/// behind the game engine's move pruning and the neighborhood index's
/// candidate pre-filter. Cost: one pass over every tuple of `s`.
std::vector<std::size_t> AtomicInvariantOf(const Structure& s, Element e);

/// An isomorphism-invariant hash of (S, t̄): equal for isomorphic pairs,
/// and a good discriminator in practice (1-dimensional Weisfeiler-Leman
/// color refinement over the Gaifman graph, seeded with atomic invariants
/// and distinguished positions). Use to bucket candidates before the exact
/// AreIsomorphic test.
std::size_t IsomorphismInvariant(const Structure& s,
                                 const Tuple& distinguished = {});

}  // namespace fmtk

#endif  // FMTK_STRUCTURES_ISOMORPHISM_H_
