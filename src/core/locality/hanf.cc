#include "core/locality/hanf.h"

#include <algorithm>
#include <map>

#include "core/locality/locality_engine.h"

namespace fmtk {

bool HanfEquivalent(const Structure& a, const Structure& b,
                    std::size_t radius, NeighborhoodTypeIndex& index) {
  if (!(a.signature() == b.signature()) ||
      a.domain_size() != b.domain_size()) {
    return false;
  }
  LocalityEngine engine_a(a);
  LocalityEngine engine_b(b);
  return engine_a.TypeHistogram(radius, index) ==
         engine_b.TypeHistogram(radius, index);
}

bool HanfEquivalent(const Structure& a, const Structure& b,
                    std::size_t radius) {
  NeighborhoodTypeIndex index;
  return HanfEquivalent(a, b, radius, index);
}

bool ThresholdHanfEquivalent(const Structure& a, const Structure& b,
                             std::size_t radius, std::size_t threshold,
                             NeighborhoodTypeIndex& index) {
  if (!(a.signature() == b.signature())) {
    return false;
  }
  LocalityEngine engine_a(a);
  LocalityEngine engine_b(b);
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> ha =
      engine_a.TypeHistogram(radius, index);
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> hb =
      engine_b.TypeHistogram(radius, index);
  auto count = [](const std::map<NeighborhoodTypeIndex::TypeId, std::size_t>&
                      h,
                  NeighborhoodTypeIndex::TypeId id) -> std::size_t {
    auto it = h.find(id);
    return it == h.end() ? 0 : it->second;
  };
  for (const auto& [id, ca] : ha) {
    const std::size_t cb = count(hb, id);
    if (ca != cb && (ca < threshold || cb < threshold)) {
      return false;
    }
  }
  for (const auto& [id, cb] : hb) {
    // A type realized in b only has counts cb (>= 1 by construction of the
    // histogram) vs 0, and min(cb, 0) = 0 clears the threshold only when
    // it is 0 — so the whole check collapses to `threshold > 0`.
    if (threshold > 0 && ha.find(id) == ha.end()) {
      return false;
    }
  }
  return true;
}

bool ThresholdHanfEquivalent(const Structure& a, const Structure& b,
                             std::size_t radius, std::size_t threshold) {
  NeighborhoodTypeIndex index;
  return ThresholdHanfEquivalent(a, b, radius, threshold, index);
}

std::optional<std::size_t> LargestHanfRadius(const Structure& a,
                                             const Structure& b,
                                             std::size_t max_radius) {
  if (!(a.signature() == b.signature()) ||
      a.domain_size() != b.domain_size()) {
    return std::nullopt;  // even ⇆0 needs a bijection over equal domains
  }
  NeighborhoodTypeIndex index;
  LocalityEngine engine_a(a);
  LocalityEngine engine_b(b);
  NeighborhoodSweep sweep_a = engine_a.NewSweep();
  NeighborhoodSweep sweep_b = engine_b.NewSweep();
  std::optional<std::size_t> largest;
  for (std::size_t r = 0; r <= max_radius; ++r) {
    if (sweep_a.HistogramAt(r, index) == sweep_b.HistogramAt(r, index)) {
      largest = r;
    } else {
      break;  // ⇆r is antitone in r.
    }
  }
  return largest;
}

}  // namespace fmtk
