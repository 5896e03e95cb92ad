#include "core/locality/gaifman_local.h"

#include <cstddef>

#include <optional>
#include <vector>

#include "core/locality/neighborhood.h"

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
  // Per neighborhood type, the first tuple seen in the output and the first
  // outside it. The witness is the first tuple whose type already holds a
  // tuple from the other side — the pair a pairwise scan in the same order
  // reports first.
  struct Slot {
    const Tuple* in_output = nullptr;
    const Tuple* not_in_output = nullptr;
  };
  NeighborhoodTypeIndex index;
  NeighborhoodTypeIndex::PassMemo memo;
  std::vector<Slot> slots;
  for (const Tuple& t : tuples) {
    const bool in_output = output.Contains(t);
    const NeighborhoodTypeIndex::TypeId id =
        engine.TypeAt(t, radius, index, memo);
    slots.resize(index.size());
    Slot& slot = slots[id];
    if (const Tuple* other = in_output ? slot.not_in_output : slot.in_output) {
      return std::optional<GaifmanViolation>(
          in_output ? GaifmanViolation{t, *other}
                    : GaifmanViolation{*other, t});
    }
    const Tuple*& same = in_output ? slot.in_output : slot.not_in_output;
    if (same == nullptr) {
      same = &t;
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
