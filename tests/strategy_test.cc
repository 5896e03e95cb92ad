#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/games/ef_game.h"
#include "core/games/linear_order.h"
#include "core/games/strategy.h"
#include "structures/generators.h"

namespace fmtk {
namespace {

TEST(SetMirrorStrategyTest, WinsOnLargeEnoughSets) {
  SetMirrorStrategy strategy;
  for (std::size_t n = 1; n <= 4; ++n) {
    for (std::size_t s1 = n; s1 <= n + 2; ++s1) {
      for (std::size_t s2 = n; s2 <= n + 2; ++s2) {
        Structure a = MakeSet(s1);
        Structure b = MakeSet(s2);
        Result<bool> survives = StrategySurvives(a, b, n, strategy);
        ASSERT_TRUE(survives.ok());
        EXPECT_TRUE(*survives) << "sets " << s1 << "," << s2 << " n=" << n;
      }
    }
  }
}

TEST(SetMirrorStrategyTest, ResignsWhenOutOfElements) {
  // 3 rounds on sets of sizes 3 vs 2: the strategy must fail (as must any).
  SetMirrorStrategy strategy;
  Structure a = MakeSet(3);
  Structure b = MakeSet(2);
  Result<bool> survives = StrategySurvives(a, b, 3, strategy);
  ASSERT_TRUE(survives.ok());
  EXPECT_FALSE(*survives);
  // Cross-check: the exact solver says the spoiler indeed wins.
  EfGameSolver solver(a, b);
  EXPECT_FALSE(*solver.DuplicatorWins(3));
}

TEST(SetMirrorStrategyTest, MirrorsRepeatedPicks) {
  SetMirrorStrategy strategy;
  Structure a = MakeSet(3);
  Structure b = MakeSet(3);
  PartialMap position = {{0, 2}};
  // Spoiler replays 0 in A: the answer must be its image 2.
  EXPECT_EQ(strategy.Respond(a, b, position, true, 0, 1),
            std::optional<Element>(2));
  // Spoiler replays 2 in B: the answer must be its preimage 0.
  EXPECT_EQ(strategy.Respond(a, b, position, false, 2, 1),
            std::optional<Element>(0));
}

TEST(OrderGapStrategyTest, WinsAboveTheTheoremThreshold) {
  // Theorem 3.1 constructively: the gap strategy survives n rounds on
  // orders of sizes >= 2^n - 1.
  OrderGapStrategy strategy;
  for (std::size_t n = 1; n <= 3; ++n) {
    const std::size_t threshold = (std::size_t{1} << n) - 1;
    for (std::size_t m : {threshold, threshold + 1, threshold + 3}) {
      for (std::size_t k : {threshold, threshold + 2}) {
        Structure a = MakeLinearOrder(m);
        Structure b = MakeLinearOrder(k);
        Result<bool> survives = StrategySurvives(a, b, n, strategy);
        ASSERT_TRUE(survives.ok());
        EXPECT_TRUE(*survives) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(OrderGapStrategyTest, WinsOnEqualOrdersOfAnySize) {
  OrderGapStrategy strategy;
  for (std::size_t m : {1, 2, 5, 9}) {
    Structure a = MakeLinearOrder(m);
    Structure b = MakeLinearOrder(m);
    Result<bool> survives = StrategySurvives(a, b, 3, strategy);
    ASSERT_TRUE(survives.ok());
    EXPECT_TRUE(*survives) << m;
  }
}

TEST(OrderGapStrategyTest, CannotWinBelowThreshold) {
  // L_6 vs L_7 at n = 3 (threshold is 7): no strategy can win; ours
  // resigns or breaks, and the solver confirms the spoiler wins.
  OrderGapStrategy strategy;
  Structure a = MakeLinearOrder(6);
  Structure b = MakeLinearOrder(7);
  Result<bool> survives = StrategySurvives(a, b, 3, strategy);
  ASSERT_TRUE(survives.ok());
  EXPECT_FALSE(*survives);
  EXPECT_FALSE(LinearOrdersEquivalent(6, 7, 3));
}

TEST(OrderGapStrategyTest, MatchesTheoremAcrossASweep) {
  // Strategy success implies theorem-equivalence (soundness direction):
  // wherever the strategy survives, the closed form must agree.
  OrderGapStrategy strategy;
  for (std::size_t n = 1; n <= 3; ++n) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t k = 1; k <= 9; ++k) {
        Structure a = MakeLinearOrder(m);
        Structure b = MakeLinearOrder(k);
        Result<bool> survives = StrategySurvives(a, b, n, strategy);
        ASSERT_TRUE(survives.ok());
        if (*survives) {
          EXPECT_TRUE(LinearOrdersEquivalent(m, k, n))
              << "strategy won an unwinnable game: m=" << m << " k=" << k
              << " n=" << n;
        }
        // Completeness at/above the threshold.
        if (LinearOrdersEquivalent(m, k, n)) {
          EXPECT_TRUE(*survives)
              << "strategy lost a winnable game: m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST(OrderGapStrategyTest, RefereePositionsArePinned) {
  // Verifying the gap strategy on L_{2^n - 1} vs L_{2^n} walks every
  // spoiler line: 57 and 3616 positions at n = 2 and 3, where the exact
  // solver expands 13 and 429.
  OrderGapStrategy strategy;
  for (const auto& [n, want] : {std::pair<std::size_t, std::uint64_t>{2, 57},
                                {3, 3616}}) {
    const std::size_t m = (std::size_t{1} << n) - 1;
    std::uint64_t positions = 0;
    Result<bool> survives =
        StrategySurvives(MakeLinearOrder(m), MakeLinearOrder(m + 1), n,
                         strategy, 20'000'000, &positions);
    ASSERT_TRUE(survives.ok());
    EXPECT_TRUE(*survives) << "n=" << n;
    EXPECT_EQ(positions, want) << "n=" << n;
  }
}

TEST(StrategyRefereeTest, NodeCap) {
  SetMirrorStrategy strategy;
  Structure a = MakeSet(6);
  Structure b = MakeSet(6);
  Result<bool> r = StrategySurvives(a, b, 5, strategy, /*max_nodes=*/10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StrategyRefereeTest, ConstantsSeedPosition) {
  auto sig = std::make_shared<Signature>();
  sig->AddConstant("c");
  Structure a(sig, 2);
  a.SetConstant(0, 0);
  Structure b(sig, 2);
  b.SetConstant(0, 1);
  SetMirrorStrategy strategy;
  // Constants pre-pin (0, 1); on pure sets any injective map works, so the
  // strategy still survives.
  Result<bool> survives = StrategySurvives(a, b, 1, strategy);
  ASSERT_TRUE(survives.ok());
  EXPECT_TRUE(*survives);
  // Mismatched interpretation loses outright.
  Structure c(sig, 2);  // Uninterpreted.
  Result<bool> lost = StrategySurvives(a, c, 0, strategy);
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
}

}  // namespace
}  // namespace fmtk
