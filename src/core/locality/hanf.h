#ifndef FMTK_CORE_LOCALITY_HANF_H_
#define FMTK_CORE_LOCALITY_HANF_H_

#include <cstddef>
#include <optional>

#include "core/locality/neighborhood.h"
#include "structures/structure.h"

namespace fmtk {

/// G ⇆r G' (Definition 3.7's premise): a bijection f between the domains
/// with N_r(a) ≅ N_r(f(a)) for every a. Equivalently — and this is how it's
/// decided here — the two structures have the same multiset of
/// r-neighborhood types (Hall's theorem collapses the bijection search,
/// since "same type" is an equivalence relation). One LocalityEngine per
/// structure computes both histograms.
bool HanfEquivalent(const Structure& a, const Structure& b,
                    std::size_t radius, NeighborhoodTypeIndex& index);

/// Convenience overload with a throwaway type index.
bool HanfEquivalent(const Structure& a, const Structure& b,
                    std::size_t radius);

/// G ⇆*_{m,r} G' (Theorem 3.10's premise, for bounded-degree classes): for
/// every r-neighborhood type, the two structures either realize it equally
/// often or both at least `threshold` times. Unlike ⇆r this does not force
/// equal cardinalities.
bool ThresholdHanfEquivalent(const Structure& a, const Structure& b,
                             std::size_t radius, std::size_t threshold,
                             NeighborhoodTypeIndex& index);

bool ThresholdHanfEquivalent(const Structure& a, const Structure& b,
                             std::size_t radius, std::size_t threshold);

/// The largest radius r <= max_radius with a ⇆r b, or nullopt when even
/// r = 0 fails. Balls grow with r, so ⇆r is antitone in r; this is the
/// crossover the survey's cycle example makes vivid (two m-cycles vs one
/// 2m-cycle satisfy ⇆r exactly while m > 2r + 1). Radius-incremental
/// sweeps extend each saved ball by one BFS layer per radius step instead
/// of recomputing every ball from scratch.
std::optional<std::size_t> LargestHanfRadius(const Structure& a,
                                             const Structure& b,
                                             std::size_t max_radius);

}  // namespace fmtk

#endif  // FMTK_CORE_LOCALITY_HANF_H_
