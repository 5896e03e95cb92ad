#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "core/games/ef_game.h"
#include "core/games/linear_order.h"
#include "core/games/pebble_game.h"
#include "core/types/rank_type.h"
#include "structures/generators.h"

namespace fmtk {
namespace {

bool DupWins(const Structure& a, const Structure& b, std::size_t rounds) {
  EfGameSolver solver(a, b);
  Result<bool> r = solver.DuplicatorWins(rounds);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

bool PebbleDupWins(const Structure& a, const Structure& b,
                   std::size_t pebbles, std::size_t rounds) {
  PebbleGameSolver solver(a, b, pebbles);
  Result<bool> r = solver.DuplicatorWins(rounds);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// --- The survey's EVEN-on-sets example (E4) -------------------------------

TEST(EfGameTest, SetsOfSizeAtLeastNAreNEquivalent) {
  // "In the n-round game on any two sets with at least n elements, the
  // duplicator has a very simple winning strategy."
  for (std::size_t n = 0; n <= 3; ++n) {
    for (std::size_t s1 = n; s1 <= n + 3; ++s1) {
      for (std::size_t s2 = n; s2 <= n + 3; ++s2) {
        EXPECT_TRUE(DupWins(MakeSet(s1), MakeSet(s2), n))
            << "sets " << s1 << "," << s2 << " rounds " << n;
      }
    }
  }
}

TEST(EfGameTest, SpoilerWinsOnSmallSets) {
  // Sets of sizes 2 and 3: spoiler wins in 3 rounds (pick 3 distinct
  // elements in the larger set) but not 2.
  EXPECT_TRUE(DupWins(MakeSet(2), MakeSet(3), 2));
  EXPECT_FALSE(DupWins(MakeSet(2), MakeSet(3), 3));
  // In general the spoiler needs exactly s+1 rounds on sets of sizes s and
  // s+1.
  for (std::size_t s = 1; s <= 4; ++s) {
    const Structure small = MakeSet(s);
    const Structure large = MakeSet(s + 1);
    EfGameSolver solver(small, large);
    Result<std::optional<std::size_t>> needed = solver.SpoilerNeeds(6);
    ASSERT_TRUE(needed.ok()) << needed.status().ToString();
    EXPECT_EQ(*needed, std::optional<std::size_t>(s + 1)) << "s=" << s;
  }
}

TEST(EfGameTest, EvenWitnessFamily) {
  // A_n = 2n-element set, B_n = (2n+1)-element set, A_n ≡n B_n (and so
  // is the (2n+2)-element set: EVEN is not FO).
  for (std::size_t n = 1; n <= 4; ++n) {
    EXPECT_TRUE(DupWins(MakeSet(2 * n), MakeSet(2 * n + 1), n)) << n;
    EXPECT_TRUE(DupWins(MakeSet(2 * n), MakeSet(2 * n + 2), n)) << n;
  }
}

TEST(EfGameTest, ZeroRoundsIsAlwaysDuplicatorWinWithoutConstants) {
  EXPECT_TRUE(DupWins(MakeDirectedPath(2), MakeDirectedCycle(7), 0));
}

TEST(EfGameTest, EmptyVsNonemptyStructure) {
  EXPECT_TRUE(DupWins(MakeSet(0), MakeSet(1), 0));
  EXPECT_FALSE(DupWins(MakeSet(0), MakeSet(1), 1));
  EXPECT_TRUE(DupWins(MakeSet(0), MakeSet(0), 5));
}

TEST(EfGameTest, GraphsDistinguishedByLoop) {
  // One loop vs no edges: spoiler wins in one round.
  Structure loop = MakeDirectedCycle(1);
  Structure empty = MakeEmptyGraph(1);
  EXPECT_FALSE(DupWins(loop, empty, 1));
  EXPECT_TRUE(DupWins(loop, empty, 0));
}

TEST(EfGameTest, PathsOfDifferentParitySmall) {
  // Small paths: 2-path vs 3-path distinguished in few rounds.
  Structure a = MakeDirectedPath(2);
  Structure b = MakeDirectedPath(3);
  EfGameSolver solver(a, b);
  Result<std::optional<std::size_t>> needed = solver.SpoilerNeeds(4);
  ASSERT_TRUE(needed.ok());
  ASSERT_TRUE(needed->has_value());
  EXPECT_GE(**needed, 2u);
  EXPECT_LE(**needed, 3u);
}

TEST(EfGameTest, InitialPositionConstrains) {
  // On the 4-path, starting with endpoint pinned to a middle point is
  // already lost for the duplicator at 1 round (degrees differ at rank 1).
  Structure p = MakeDirectedPath(4);
  EfGameSolver solver(p, p);
  EXPECT_TRUE(*solver.DuplicatorWins(1, {{0, 0}}));
  EXPECT_FALSE(*solver.DuplicatorWins(1, {{0, 1}}));
}

TEST(EfGameTest, ConstantsSeedThePosition) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure a(sig, 2);
  a.AddTuple(0, {0, 1});
  a.SetConstant(0, 0);  // c = edge source.
  Structure b(sig, 2);
  b.AddTuple(0, {0, 1});
  b.SetConstant(0, 1);  // c = edge target.
  // Even with zero rounds the constant pair breaks: c has an out-edge in a,
  // none in b — visible at round 1; at round 0 the single pair (0,1) is
  // fine... actually E(c,·): need second element. Round 1 breaks it.
  EfGameSolver solver(a, b);
  EXPECT_TRUE(*solver.DuplicatorWins(0));
  EXPECT_FALSE(*solver.DuplicatorWins(1));
}

TEST(EfGameTest, MismatchedConstantInterpretation) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure a(sig, 2);
  a.SetConstant(0, 0);
  Structure b(sig, 2);  // c uninterpreted.
  EfGameSolver solver(a, b);
  EXPECT_FALSE(*solver.DuplicatorWins(0));
}

TEST(EfGameTest, NodeCapReturnsResourceExhausted) {
  GameOptions options;
  options.max_nodes = 10;
  Structure a = MakeDirectedCycle(6);
  Structure b = MakeDirectedCycle(7);
  EfGameSolver solver(a, b, options);
  Result<bool> r = solver.DuplicatorWins(4);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EfGameTest, AdversarialPlayEndsInBrokenPositionWhenSpoilerWins) {
  Structure a = MakeSet(2);
  Structure b = MakeSet(3);
  EfGameSolver solver(a, b);
  Result<std::vector<EfGameSolver::PlayStep>> play =
      solver.AdversarialPlay(3);
  ASSERT_TRUE(play.ok());
  ASSERT_EQ(play->size(), 3u);
  // Spoiler plays in the bigger set (B) each time; the duplicator's third
  // response must collide (sets of size 2 cannot host 3 distinct points).
  PartialMap position;
  for (const auto& step : *play) {
    ASSERT_TRUE(step.duplicator.has_value());
    position.emplace_back(step.spoiler_in_a ? step.spoiler : *step.duplicator,
                          step.spoiler_in_a ? *step.duplicator : step.spoiler);
  }
  EXPECT_FALSE(IsPartialIsomorphism(MakeSet(2), MakeSet(3), position));
}

TEST(EfGameTest, AdversarialPlaySurvivesWhenDuplicatorWins) {
  Structure a = MakeSet(4);
  Structure b = MakeSet(5);
  EfGameSolver solver(a, b);
  Result<std::vector<EfGameSolver::PlayStep>> play =
      solver.AdversarialPlay(3);
  ASSERT_TRUE(play.ok());
  PartialMap position;
  for (const auto& step : *play) {
    ASSERT_TRUE(step.duplicator.has_value());
    position.emplace_back(step.spoiler_in_a ? step.spoiler : *step.duplicator,
                          step.spoiler_in_a ? *step.duplicator : step.spoiler);
  }
  EXPECT_TRUE(IsPartialIsomorphism(a, b, position));
}

// --- Rank types and the fundamental theorem -------------------------------

TEST(RankTypeTest, AtomicTypesSeparateTuples) {
  RankTypeIndex index;
  Structure p = MakeDirectedPath(3);
  EXPECT_EQ(index.TypeOf(p, {0, 1}, 0), index.TypeOf(p, {1, 2}, 0));
  EXPECT_NE(index.TypeOf(p, {0, 1}, 0), index.TypeOf(p, {1, 0}, 0));
  EXPECT_NE(index.TypeOf(p, {0, 0}, 0), index.TypeOf(p, {0, 1}, 0));
}

TEST(RankTypeTest, RankRefinesTypes) {
  RankTypeIndex index;
  Structure p = MakeDirectedPath(3);  // 0->1->2
  // Endpoints 0 and 2 have equal atomic type (no loops) but differ at
  // rank 1 (0 has an out-neighbor, 2 does not... both have one neighbor;
  // 0's is outgoing, 2's is incoming).
  EXPECT_NE(index.TypeOf(p, {0}, 1), index.TypeOf(p, {2}, 1));
  EXPECT_EQ(index.TypeOf(p, {0}, 0), index.TypeOf(p, {2}, 0));
}

TEST(RankTypeTest, EquivalenceMatchesGameSolver) {
  // The fundamental theorem, cross-validated: τ_n equality == game value,
  // on a panel of small structure pairs.
  std::vector<std::pair<Structure, Structure>> pairs;
  pairs.emplace_back(MakeSet(2), MakeSet(3));
  pairs.emplace_back(MakeSet(4), MakeSet(5));
  pairs.emplace_back(MakeDirectedPath(3), MakeDirectedPath(4));
  pairs.emplace_back(MakeDirectedCycle(3), MakeDirectedCycle(4));
  pairs.emplace_back(MakeDirectedCycle(4), MakeDisjointCycles(2, 2));
  pairs.emplace_back(MakeLinearOrder(3), MakeLinearOrder(4));
  pairs.emplace_back(MakeEmptyGraph(3), MakeCompleteGraph(3));
  std::mt19937_64 rng(11);
  for (int i = 0; i < 3; ++i) {
    pairs.emplace_back(MakeRandomGraph(3, 0.4, rng),
                       MakeRandomGraph(3, 0.4, rng));
  }
  RankTypeIndex index;
  for (const auto& [a, b] : pairs) {
    EfGameSolver solver(a, b);
    for (std::size_t n = 0; n <= 3; ++n) {
      Result<bool> game = solver.DuplicatorWins(n);
      ASSERT_TRUE(game.ok()) << game.status().ToString();
      EXPECT_EQ(*game, index.EquivalentUpToRank(a, b, n))
          << "n=" << n << "\nA: " << a.ToString() << "\nB: " << b.ToString();
    }
  }
}

TEST(RankTypeTest, DistinguishingRank) {
  RankTypeIndex index;
  // Sets 2 vs 3 are distinguished exactly at rank 3.
  std::optional<std::size_t> r =
      index.DistinguishingRank(MakeSet(2), MakeSet(3), 5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 3u);
  // A structure is equivalent to itself at every rank.
  EXPECT_FALSE(
      index.DistinguishingRank(MakeDirectedCycle(4), MakeDirectedCycle(4), 4)
          .has_value());
}

TEST(RankTypeTest, SignatureMismatchNotEquivalent) {
  RankTypeIndex index;
  EXPECT_FALSE(
      index.EquivalentUpToRank(MakeLinearOrder(2), MakeDirectedPath(2), 1));
}

// --- Linear orders: Theorem 3.1 (E5) --------------------------------------

TEST(LinearOrderTest, ClosedFormMatchesCompositionDP) {
  for (std::size_t n = 0; n <= 4; ++n) {
    for (std::size_t m = 0; m <= 20; ++m) {
      for (std::size_t k = 0; k <= 20; ++k) {
        EXPECT_EQ(LinearOrdersEquivalent(m, k, n),
                  LinearOrdersEquivalentByComposition(m, k, n))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(LinearOrderTest, CompositionMatchesGameSolverOnSmallOrders) {
  for (std::size_t n = 0; n <= 3; ++n) {
    for (std::size_t m = 0; m <= 7; ++m) {
      for (std::size_t k = m; k <= 7; ++k) {
        EXPECT_EQ(DupWins(MakeLinearOrder(m), MakeLinearOrder(k), n),
                  LinearOrdersEquivalentByComposition(m, k, n))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(LinearOrderTest, TheoremThresholds) {
  // L_m ≡n L_k for m,k >= 2^n (the survey's statement; the sharp bound is
  // 2^n - 1).
  EXPECT_TRUE(LinearOrdersEquivalent(8, 9, 3));
  EXPECT_TRUE(LinearOrdersEquivalent(7, 100, 3));   // Sharp: 2^3-1 = 7.
  EXPECT_FALSE(LinearOrdersEquivalent(6, 7, 3));
  EXPECT_FALSE(LinearOrdersEquivalent(6, 100, 3));
  EXPECT_TRUE(LinearOrdersEquivalent(6, 6, 3));     // Equal sizes always.
  EXPECT_TRUE(LinearOrdersEquivalent(3, 4, 2));     // 2^2-1 = 3.
  EXPECT_FALSE(LinearOrdersEquivalent(2, 3, 2));
  // The least s with L_s ≡n L_{s+1} is 2^n - 1, by the composition DP.
  LinearOrderGameTable table;
  for (std::size_t n = 1; n <= 6; ++n) {
    std::size_t s = 1;
    while (!table.Equivalent(s, s + 1, n)) {
      ++s;
    }
    EXPECT_EQ(s, (std::size_t{1} << n) - 1) << "n=" << n;
  }
}

TEST(LinearOrderTest, EvenNotExpressibleWitness) {
  // The inexpressibility scaffold for EVEN over orders: L_{2^n} vs
  // L_{2^n+1} are n-equivalent but have different parity.
  for (std::size_t n = 1; n <= 10; ++n) {
    const std::size_t even_size = std::size_t{1} << n;
    EXPECT_TRUE(LinearOrdersEquivalent(even_size, even_size + 1, n));
    EXPECT_EQ(even_size % 2, 0u);
    EXPECT_EQ((even_size + 1) % 2, 1u);
  }
}

TEST(LinearOrderTest, HugeRankGuard) {
  EXPECT_TRUE(LinearOrdersEquivalent(5, 5, 100));
  EXPECT_FALSE(LinearOrdersEquivalent(5, 6, 100));
}

// --- Pebble games ----------------------------------------------------------

TEST(PebbleGameTest, ManyPebblesMatchEfGame) {
  // With pebbles >= rounds, the pebble game equals the EF game.
  std::vector<std::pair<Structure, Structure>> pairs;
  pairs.emplace_back(MakeSet(2), MakeSet(3));
  pairs.emplace_back(MakeDirectedPath(3), MakeDirectedCycle(3));
  pairs.emplace_back(MakeDirectedCycle(3), MakeDirectedCycle(4));
  for (const auto& [a, b] : pairs) {
    for (std::size_t rounds = 0; rounds <= 3; ++rounds) {
      EXPECT_EQ(PebbleDupWins(a, b, /*pebbles=*/3, rounds),
                DupWins(a, b, rounds))
          << "rounds=" << rounds;
    }
  }
}

TEST(PebbleGameTest, FewerPebblesAreWeaker) {
  // 2 sets of different sizes >= 2: with 2 pebbles the spoiler cannot
  // count to 3, so the duplicator survives arbitrarily many rounds.
  Structure a = MakeSet(2);
  Structure b = MakeSet(3);
  EXPECT_TRUE(PebbleDupWins(a, b, /*pebbles=*/2, 6));
  EXPECT_FALSE(PebbleDupWins(a, b, /*pebbles=*/3, 3));
}

TEST(PebbleGameTest, OnePebbleSeesOnlyPointTypes) {
  // One pebble distinguishes a loop from a non-loop but not set sizes.
  Structure loop = MakeDirectedCycle(1);
  Structure noloop = MakeEmptyGraph(1);
  EXPECT_FALSE(PebbleDupWins(loop, noloop, 1, 1));
  Structure s3 = MakeSet(3);
  Structure s5 = MakeSet(5);
  EXPECT_TRUE(PebbleDupWins(s3, s5, 1, 8));
}

TEST(PebbleGameTest, NodeCap) {
  Structure a = MakeDirectedCycle(5);
  Structure b = MakeDirectedCycle(6);
  GameOptions options;
  options.max_nodes = 5;
  PebbleGameSolver solver(a, b, 2, options);
  Result<bool> r = solver.DuplicatorWins(4);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace fmtk
