#include "core/games/linear_order.h"

#include <cstdint>
#include <map>
#include <tuple>

namespace fmtk {

bool LinearOrdersEquivalent(std::size_t m, std::size_t k, std::size_t n) {
  if (m == k) {
    return true;
  }
  // 2^n - 1 computed without overflow: for n >= 63 every pair of distinct
  // finite sizes below the threshold is impossible to reach in practice, but
  // guard anyway.
  if (n >= 63) {
    return false;  // Distinct m != k below an astronomically large threshold.
  }
  const std::uint64_t threshold = (std::uint64_t{1} << n) - 1;
  return m >= threshold && k >= threshold;
}

namespace {

// Interval game value: does the duplicator survive n rounds on open
// intervals of sizes m and k? (An order of size m is the interval with m
// inner points and two virtual endpoints.)
bool IntervalEq(std::size_t m, std::size_t k, std::size_t n,
                std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
                         bool>& memo) {
  if (n == 0) {
    return true;
  }
  // Either both are empty or both are nonempty; a pick in a nonempty
  // interval cannot be answered in an empty one.
  if ((m == 0) != (k == 0)) {
    return false;
  }
  if (m == 0 && k == 0) {
    return true;
  }
  if (m == k) {
    return true;  // Identity strategy.
  }
  // Symmetric key.
  auto key = std::make_tuple(std::min(m, k), std::max(m, k), n);
  auto it = memo.find(key);
  if (it != memo.end()) {
    return it->second;
  }
  memo.emplace(key, true);  // Cut off cycles optimistically (none occur:
                            // n strictly decreases).
  // Spoiler picks position a (1-based) in the m-interval: splits into
  // (a-1, m-a); duplicator needs b with both sides (n-1)-equivalent.
  // And symmetrically.
  bool duplicator_wins = true;
  for (int side = 0; side < 2 && duplicator_wins; ++side) {
    const std::size_t from = side == 0 ? m : k;
    const std::size_t to = side == 0 ? k : m;
    for (std::size_t a = 1; a <= from && duplicator_wins; ++a) {
      auto answers = [&](std::size_t b) {
        return IntervalEq(a - 1, b - 1, n - 1, memo) &&
               IntervalEq(from - a, to - b, n - 1, memo);
      };
      // Try the answers at a's distance from either end first: above the
      // threshold one of them wins, which spares the scan over every b.
      bool answered = (a <= to && answers(a)) ||
                      (from - a < to && answers(to - (from - a)));
      for (std::size_t b = 1; b <= to && !answered; ++b) {
        answered = answers(b);
      }
      duplicator_wins = answered;
    }
  }
  memo[key] = duplicator_wins;
  return duplicator_wins;
}

}  // namespace

bool LinearOrdersEquivalentByComposition(std::size_t m, std::size_t k,
                                         std::size_t n) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, bool> memo;
  return IntervalEq(m, k, n, memo);
}

bool LinearOrderGameTable::Equivalent(std::size_t m, std::size_t k,
                                      std::size_t n) {
  return IntervalEq(m, k, n, memo_);
}

}  // namespace fmtk
