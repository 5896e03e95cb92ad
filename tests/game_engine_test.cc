#include "core/games/game_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/games/ef_game.h"
#include "core/games/pebble_game.h"
#include "core/types/rank_type.h"
#include "structures/generators.h"
#include "structures/isomorphism.h"

namespace fmtk {
namespace {

// ---------------------------------------------------------------------------
// Brute-force oracles. These replicate the seed solvers' search exactly —
// full IsPartialIsomorphism revalidation at every node, no symmetry pruning,
// every spoiler move and duplicator response enumerated — but key the memo
// on (rounds, position) pairs directly so the oracle itself has no
// truncation bug. They are the ground truth for the differential tests.
// ---------------------------------------------------------------------------

class BruteForceEf {
 public:
  BruteForceEf(const Structure& a, const Structure& b) : a_(a), b_(b) {}

  bool DuplicatorWins(std::size_t rounds, const PartialMap& initial = {}) {
    PartialMap position = initial;
    for (std::size_t c = 0; c < a_.signature().constant_count(); ++c) {
      std::optional<Element> ca = a_.constant(c);
      std::optional<Element> cb = b_.constant(c);
      if (ca.has_value() != cb.has_value()) {
        return false;
      }
      if (ca.has_value()) {
        position.emplace_back(*ca, *cb);
      }
    }
    return Wins(rounds, std::move(position));
  }

 private:
  static bool Pinned(const PartialMap& map, bool in_a, Element e) {
    for (const auto& [x, y] : map) {
      if ((in_a ? x : y) == e) {
        return true;
      }
    }
    return false;
  }

  bool Wins(std::size_t rounds, PartialMap position) {
    std::sort(position.begin(), position.end());
    position.erase(std::unique(position.begin(), position.end()),
                   position.end());
    if (!IsPartialIsomorphism(a_, b_, position)) {
      return false;
    }
    if (rounds == 0) {
      return true;
    }
    auto key = std::make_pair(rounds, position);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      return it->second;
    }
    bool duplicator_wins = true;
    for (int side = 0; side < 2 && duplicator_wins; ++side) {
      const bool in_a = (side == 0);
      const Structure& from = in_a ? a_ : b_;
      const Structure& to = in_a ? b_ : a_;
      for (Element s = 0; s < from.domain_size() && duplicator_wins; ++s) {
        if (Pinned(position, in_a, s)) {
          continue;
        }
        bool has_response = false;
        for (Element d = 0; d < to.domain_size() && !has_response; ++d) {
          PartialMap next = position;
          next.emplace_back(in_a ? s : d, in_a ? d : s);
          has_response = Wins(rounds - 1, std::move(next));
        }
        duplicator_wins = has_response;
      }
    }
    memo_.emplace(std::move(key), duplicator_wins);
    return duplicator_wins;
  }

  const Structure& a_;
  const Structure& b_;
  std::map<std::pair<std::size_t, PartialMap>, bool> memo_;
};

class BruteForcePebble {
 public:
  using Board = std::vector<std::optional<std::pair<Element, Element>>>;

  BruteForcePebble(const Structure& a, const Structure& b,
                   std::size_t pebbles)
      : a_(a), b_(b), pebbles_(pebbles) {}

  bool DuplicatorWins(std::size_t rounds) {
    return Wins(rounds, Board(pebbles_));
  }

 private:
  bool BoardIsPartialIso(const Board& board) const {
    PartialMap map;
    for (const auto& placement : board) {
      if (placement.has_value()) {
        map.push_back(*placement);
      }
    }
    for (std::size_t c = 0; c < a_.signature().constant_count(); ++c) {
      std::optional<Element> ca = a_.constant(c);
      std::optional<Element> cb = b_.constant(c);
      if (ca.has_value() != cb.has_value()) {
        return false;
      }
      if (ca.has_value()) {
        map.emplace_back(*ca, *cb);
      }
    }
    return IsPartialIsomorphism(a_, b_, map);
  }

  bool Wins(std::size_t rounds, const Board& board) {
    if (!BoardIsPartialIso(board)) {
      return false;
    }
    if (rounds == 0) {
      return true;
    }
    auto key = std::make_pair(rounds, board);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      return it->second;
    }
    bool duplicator_wins = true;
    for (std::size_t p = 0; p < pebbles_ && duplicator_wins; ++p) {
      for (int side = 0; side < 2 && duplicator_wins; ++side) {
        const bool in_a = (side == 0);
        const Structure& from = in_a ? a_ : b_;
        const Structure& to = in_a ? b_ : a_;
        for (Element s = 0; s < from.domain_size() && duplicator_wins; ++s) {
          bool has_response = false;
          for (Element d = 0; d < to.domain_size() && !has_response; ++d) {
            Board next = board;
            next[p] = in_a ? std::make_pair(s, d) : std::make_pair(d, s);
            has_response = Wins(rounds - 1, next);
          }
          duplicator_wins = has_response;
        }
      }
    }
    memo_.emplace(std::move(key), duplicator_wins);
    return duplicator_wins;
  }

  const Structure& a_;
  const Structure& b_;
  std::size_t pebbles_;
  std::map<std::pair<std::size_t, Board>, bool> memo_;
};

// A signature exercising every feature the engine special-cases: a nullary
// relation (invisible to incremental checks), a unary one, a binary one,
// and a constant (swap-class singletons, seeded positions).
std::shared_ptr<const Signature> RichSignature() {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("Q", 0).AddRelation("P", 1).AddRelation("E", 2).AddConstant(
      "c");
  return sig;
}

// ---------------------------------------------------------------------------
// Differential tests: the optimized solver vs the brute-force oracle on
// fixed-seed random pairs. 500 EF pairs total across the three EF tests.
// ---------------------------------------------------------------------------

TEST(EfDifferentialTest, RandomGraphPairsMatchBruteForce) {
  std::mt19937_64 rng(20260807);
  RankTypeIndex rank_index;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t na = 1 + rng() % 5;
    const std::size_t nb = 1 + rng() % 5;
    const double p = 0.1 + 0.8 * (static_cast<double>(rng() % 1000) / 1000.0);
    Structure a = MakeRandomGraph(na, p, rng);
    Structure b = MakeRandomGraph(nb, p, rng);
    const std::size_t rounds = rng() % 4;
    BruteForceEf oracle(a, b);
    EfGameSolver solver(a, b);
    Result<bool> fast = solver.DuplicatorWins(rounds);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, oracle.DuplicatorWins(rounds))
        << "trial " << trial << " rounds " << rounds << "\nA: " << a.ToString()
        << "\nB: " << b.ToString();
    if (trial % 20 == 0) {
      // Cross-validate against the fundamental theorem: the game value must
      // equal rank-type equivalence.
      EXPECT_EQ(*fast, rank_index.EquivalentUpToRank(a, b, rounds))
          << "trial " << trial;
    }
  }
}

TEST(EfDifferentialTest, RichSignaturePairsMatchBruteForce) {
  // Nullary relations, unary predicates, and constants all in play.
  std::mt19937_64 rng(424242);
  auto sig = RichSignature();
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t na = 1 + rng() % 4;
    const std::size_t nb = 1 + rng() % 4;
    Structure a = MakeRandomStructure(sig, na, 0.4, rng);
    Structure b = MakeRandomStructure(sig, nb, 0.4, rng);
    const std::size_t rounds = rng() % 4;
    BruteForceEf oracle(a, b);
    EfGameSolver solver(a, b);
    Result<bool> fast = solver.DuplicatorWins(rounds);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, oracle.DuplicatorWins(rounds))
        << "trial " << trial << " rounds " << rounds << "\nA: " << a.ToString()
        << "\nB: " << b.ToString();
  }
}

TEST(EfDifferentialTest, InitialPositionsMatchBruteForce) {
  // Random (possibly broken) initial positions exercise BuildPosition.
  std::mt19937_64 rng(7777);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t na = 2 + rng() % 4;
    const std::size_t nb = 2 + rng() % 4;
    Structure a = MakeRandomGraph(na, 0.5, rng);
    Structure b = MakeRandomGraph(nb, 0.5, rng);
    PartialMap initial;
    const std::size_t pairs = rng() % 3;
    for (std::size_t i = 0; i < pairs; ++i) {
      initial.emplace_back(static_cast<Element>(rng() % na),
                           static_cast<Element>(rng() % nb));
    }
    const std::size_t rounds = rng() % 3;
    BruteForceEf oracle(a, b);
    EfGameSolver solver(a, b);
    Result<bool> fast = solver.DuplicatorWins(rounds, initial);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, oracle.DuplicatorWins(rounds, initial))
        << "trial " << trial << " rounds " << rounds << "\nA: " << a.ToString()
        << "\nB: " << b.ToString();
  }
}

TEST(PebbleDifferentialTest, RandomPairsMatchBruteForce) {
  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t na = 1 + rng() % 4;
    const std::size_t nb = 1 + rng() % 4;
    Structure a = MakeRandomGraph(na, 0.45, rng);
    Structure b = MakeRandomGraph(nb, 0.45, rng);
    const std::size_t pebbles = 1 + rng() % 3;
    const std::size_t rounds = rng() % 4;
    BruteForcePebble oracle(a, b, pebbles);
    PebbleGameSolver solver(a, b, pebbles);
    Result<bool> fast = solver.DuplicatorWins(rounds);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, oracle.DuplicatorWins(rounds))
        << "trial " << trial << " pebbles " << pebbles << " rounds " << rounds
        << "\nA: " << a.ToString() << "\nB: " << b.ToString();
  }
}

TEST(PebbleDifferentialTest, RichSignaturePairsMatchBruteForce) {
  std::mt19937_64 rng(90210);
  auto sig = RichSignature();
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t na = 1 + rng() % 3;
    const std::size_t nb = 1 + rng() % 3;
    Structure a = MakeRandomStructure(sig, na, 0.4, rng);
    Structure b = MakeRandomStructure(sig, nb, 0.4, rng);
    const std::size_t pebbles = 1 + rng() % 2;
    const std::size_t rounds = rng() % 4;
    BruteForcePebble oracle(a, b, pebbles);
    PebbleGameSolver solver(a, b, pebbles);
    Result<bool> fast = solver.DuplicatorWins(rounds);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, oracle.DuplicatorWins(rounds))
        << "trial " << trial << " pebbles " << pebbles << " rounds " << rounds
        << "\nA: " << a.ToString() << "\nB: " << b.ToString();
  }
}

// ---------------------------------------------------------------------------
// Node-cap (ResourceExhausted) paths of the rebuilt search.
// ---------------------------------------------------------------------------

// Each game is capped on a spoiler-win instance and on a duplicator-win
// instance (sets), where no refutation ends the search before the cap.
TEST(NodeCapTest, EfSequentialCap) {
  Structure c6 = MakeDirectedCycle(6);
  Structure c7 = MakeDirectedCycle(7);
  Structure s4 = MakeSet(4);
  Structure s5 = MakeSet(5);
  struct Case {
    const Structure& a;
    const Structure& b;
    std::uint64_t max_nodes;
  };
  for (const Case& c : {Case{c6, c7, 10}, Case{s4, s5, 3}}) {
    GameOptions options;
    options.max_nodes = c.max_nodes;
    EfGameSolver solver(c.a, c.b, options);
    Result<bool> r = solver.DuplicatorWins(4);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().message(), "EF game search exceeded " +
                                        std::to_string(c.max_nodes) +
                                        " positions");
  }
}

TEST(NodeCapTest, PebbleSequentialCap) {
  Structure c5 = MakeDirectedCycle(5);
  Structure c6 = MakeDirectedCycle(6);
  Structure s4 = MakeSet(4);
  Structure s5 = MakeSet(5);
  struct Case {
    const Structure& a;
    const Structure& b;
    std::size_t pebbles;
    std::uint64_t max_nodes;
  };
  for (const Case& c : {Case{c5, c6, 2, 5}, Case{s4, s5, 3, 3}}) {
    GameOptions options;
    options.max_nodes = c.max_nodes;
    PebbleGameSolver solver(c.a, c.b, c.pebbles, options);
    Result<bool> r = solver.DuplicatorWins(4);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().message(), "pebble game search exceeded " +
                                        std::to_string(c.max_nodes) +
                                        " positions");
  }
}

// ---------------------------------------------------------------------------
// Search-statistics behavior: the counters exist and the pruning bites.
// ---------------------------------------------------------------------------

TEST(GameStatsTest, LinearOrderNodesDropAtLeastFiveFold) {
  // The seed solver expands 10125 positions deciding L7 vs L8 at 3 rounds
  // (measured; see EXPERIMENTS.md E16). The acceptance bar for the rebuilt
  // engine is a >= 5x reduction.
  Structure a = MakeLinearOrder(7);
  Structure b = MakeLinearOrder(8);
  EfGameSolver solver(a, b);
  Result<bool> r = solver.DuplicatorWins(3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_GT(solver.stats().nodes_explored, 0u);
  EXPECT_LE(solver.stats().nodes_explored, 10125u / 5);
}

TEST(GameStatsTest, ExactCountersArePinned) {
  // Sequential searches visit moves in one fixed order, so every counter is
  // a deterministic function of the search order. These values were
  // recorded before the EF and pebble solvers moved onto one search core;
  // a changed count means a changed search order.
  struct Expected {
    bool duplicator_wins;
    std::uint64_t nodes_explored;
    std::uint64_t table_hits;
    std::uint64_t moves_pruned;
  };
  auto check = [](const char* label, Result<bool> verdict,
                  const GameStats& stats, const Expected& want) {
    ASSERT_TRUE(verdict.ok()) << label << ": " << verdict.status().ToString();
    EXPECT_EQ(*verdict, want.duplicator_wins) << label;
    EXPECT_EQ(stats.nodes_explored, want.nodes_explored) << label;
    EXPECT_EQ(stats.table_hits, want.table_hits) << label;
    EXPECT_EQ(stats.moves_pruned, want.moves_pruned) << label;
  };
  Structure l7 = MakeLinearOrder(7);
  Structure l8 = MakeLinearOrder(8);
  Structure c5 = MakeDirectedCycle(5);
  Structure c6 = MakeDirectedCycle(6);
  {
    EfGameSolver solver(l7, l8);
    check("EF L7 vs L8, 3 rounds", solver.DuplicatorWins(3), solver.stats(),
          {true, 429, 149, 8402});
  }
  {
    EfGameSolver solver(c5, c6);
    check("EF C5 vs C6, 3 rounds", solver.DuplicatorWins(3), solver.stats(),
          {false, 31, 0, 374});
  }
  {
    PebbleGameSolver solver(c5, c6, 2);
    check("2 pebbles, C5 vs C6, 4 rounds", solver.DuplicatorWins(4),
          solver.stats(), {true, 215, 1341, 5833});
  }
  {
    PebbleGameSolver solver(c5, c6, 3);
    check("3 pebbles, C5 vs C6, 3 rounds", solver.DuplicatorWins(3),
          solver.stats(), {false, 41, 56, 1317});
  }
  // On orders and cycles the signature buckets are all-or-nothing; a path's
  // endpoints split them, so these cases also pin the bucket-first order of
  // duplicator responses.
  Structure p6 = MakeDirectedPath(6);
  Structure p7 = MakeDirectedPath(7);
  {
    EfGameSolver solver(p6, p7);
    check("EF P6 vs P7, 3 rounds", solver.DuplicatorWins(3), solver.stats(),
          {false, 32, 5, 418});
  }
  {
    PebbleGameSolver solver(p6, p7, 2);
    check("2 pebbles, P6 vs P7, 4 rounds", solver.DuplicatorWins(4),
          solver.stats(), {false, 194, 972, 2988});
  }
}

TEST(GameStatsTest, SwapClassPruningCollapsesSets) {
  // On pure sets every element is interchangeable: one swap class per side,
  // so the root expands a single spoiler representative and prunes the rest.
  Structure a = MakeSet(5);
  Structure b = MakeSet(6);
  EfGameSolver solver(a, b);
  Result<bool> r = solver.DuplicatorWins(3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_GT(solver.stats().moves_pruned, 0u);
  // 3 rounds on interchangeable elements: a handful of real positions.
  EXPECT_LE(solver.stats().nodes_explored, 32u);
}

TEST(GameStatsTest, IterativeDeepeningHitsTheSharedTable) {
  Structure a = MakeDirectedCycle(5);
  Structure b = MakeDirectedCycle(6);
  EfGameSolver solver(a, b);
  Result<std::optional<std::size_t>> needed = solver.SpoilerNeeds(4);
  ASSERT_TRUE(needed.ok());
  ASSERT_TRUE(needed->has_value());
  EXPECT_EQ(**needed, 3u);
  EXPECT_GT(solver.stats().table_hits, 0u);
}

TEST(GameStatsTest, PebbleStatsAccumulate) {
  Structure a = MakeDirectedCycle(5);
  Structure b = MakeDirectedCycle(6);
  PebbleGameSolver solver(a, b, 2);
  Result<bool> r = solver.DuplicatorWins(4);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(solver.stats().nodes_explored, 0u);
  EXPECT_GT(solver.stats().moves_pruned, 0u);
  EXPECT_EQ(solver.nodes_explored(), solver.stats().nodes_explored);
}

// ---------------------------------------------------------------------------
// game_engine primitives.
// ---------------------------------------------------------------------------

TEST(SwapClassTest, SetsCollapseToOneClass) {
  Structure s = MakeSet(4);
  auto occ = game_engine::BuildOccurrenceLists(s);
  std::uint32_t count = 0;
  std::vector<std::uint32_t> classes = game_engine::SwapClasses(s, occ, &count);
  EXPECT_EQ(count, 1u);
  for (std::uint32_t c : classes) {
    EXPECT_EQ(c, classes[0]);
  }
}

TEST(SwapClassTest, LinearOrderHasSingletonClasses) {
  Structure s = MakeLinearOrder(3);
  auto occ = game_engine::BuildOccurrenceLists(s);
  std::uint32_t count = 0;
  std::vector<std::uint32_t> classes = game_engine::SwapClasses(s, occ, &count);
  EXPECT_EQ(count, 3u);
}

TEST(SwapClassTest, DirectedCycleSwapsAreNotAutomorphisms) {
  // Rotations are automorphisms of a directed cycle but transpositions are
  // not, so swap classes stay singletons (the pruning must not over-merge).
  Structure s = MakeDirectedCycle(4);
  auto occ = game_engine::BuildOccurrenceLists(s);
  std::uint32_t count = 0;
  game_engine::SwapClasses(s, occ, &count);
  EXPECT_EQ(count, 4u);
}

TEST(SwapClassTest, ConstantsGetSingletonClasses) {
  auto sig = std::make_shared<Signature>();
  sig->AddConstant("c");
  Structure s(sig, 4);  // A 4-element set with one named point.
  s.SetConstant(0, 1);
  auto occ = game_engine::BuildOccurrenceLists(s);
  std::uint32_t count = 0;
  std::vector<std::uint32_t> classes = game_engine::SwapClasses(s, occ, &count);
  // {1} is pinned by the constant; {0, 2, 3} are interchangeable.
  EXPECT_EQ(count, 2u);
  EXPECT_NE(classes[1], classes[0]);
  EXPECT_EQ(classes[0], classes[2]);
  EXPECT_EQ(classes[0], classes[3]);
}

TEST(PositionStateTest, IncrementalChecksMatchFullValidation) {
  Structure a = MakeDirectedPath(3);  // 0 -> 1 -> 2
  Structure b = MakeDirectedCycle(3);
  auto occ_a = game_engine::BuildOccurrenceLists(a);
  auto occ_b = game_engine::BuildOccurrenceLists(b);
  game_engine::ZobristTable zobrist(a.domain_size(), b.domain_size());
  game_engine::PositionState state(a, b, &occ_a, &occ_b, &zobrist);

  EXPECT_TRUE(state.TryAdd(0, 0));
  // 0 -> 1 in the path, 0 -> 1 in the cycle: edge preserved both ways.
  EXPECT_TRUE(state.TryAdd(1, 1));
  // Path has no edge 2 -> 0, cycle has 2 -> 0: adding (2, 2) must fail.
  EXPECT_FALSE(state.TryAdd(2, 2));
  PartialMap broken = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_FALSE(IsPartialIsomorphism(a, b, broken));

  // Injectivity and functionality rejections.
  EXPECT_FALSE(state.TryAdd(2, 1));  // 1 already has a preimage.
  EXPECT_FALSE(state.TryAdd(0, 2));  // 0 already has an image.
  // Replaying an existing pair bumps the count, leaves the hash alone.
  const std::uint64_t h = state.hash();
  EXPECT_TRUE(state.TryAdd(0, 0));
  EXPECT_EQ(state.hash(), h);
  EXPECT_EQ(state.CountOfA(0), 2u);
  state.Remove(0, 0);
  EXPECT_EQ(state.hash(), h);
  EXPECT_TRUE(state.PinnedInA(0));
}

TEST(PositionStateTest, HashIsOrderInsensitiveAndRestoredByRemove) {
  Structure a = MakeSet(3);
  Structure b = MakeSet(3);
  auto occ_a = game_engine::BuildOccurrenceLists(a);
  auto occ_b = game_engine::BuildOccurrenceLists(b);
  game_engine::ZobristTable zobrist(3, 3);
  game_engine::PositionState s1(a, b, &occ_a, &occ_b, &zobrist);
  game_engine::PositionState s2(a, b, &occ_a, &occ_b, &zobrist);
  EXPECT_TRUE(s1.TryAdd(0, 1));
  EXPECT_TRUE(s1.TryAdd(2, 0));
  EXPECT_TRUE(s2.TryAdd(2, 0));
  EXPECT_TRUE(s2.TryAdd(0, 1));
  EXPECT_EQ(s1.hash(), s2.hash());
  EXPECT_EQ(s1.distinct_pairs(), 2u);
  s1.Remove(2, 0);
  s1.Remove(0, 1);
  EXPECT_EQ(s1.hash(), 0u);
  EXPECT_EQ(s1.distinct_pairs(), 0u);
  EXPECT_FALSE(s1.PinnedInA(0));
}

TEST(TranspositionKeyTest, RoundsParticipateInFullWidth) {
  // The seed's one-char key wrapped at 256 rounds; the packed key must not.
  const std::uint64_t h = 0x1234'5678'9abc'def0ULL;
  EXPECT_NE(game_engine::TranspositionKey(h, 1),
            game_engine::TranspositionKey(h, 257));
  EXPECT_NE(game_engine::TranspositionKey(h, 44),
            game_engine::TranspositionKey(h, 300));
  EXPECT_NE(game_engine::TranspositionKey(h, 0),
            game_engine::TranspositionKey(h, 256));
}

TEST(NullaryRelationTest, DisagreementLosesEvenAtZeroRounds) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("Q", 0);
  Structure a(sig, 2);
  a.AddTuple(0, {});  // Q holds in A only.
  Structure b(sig, 2);
  EXPECT_FALSE(game_engine::NullaryRelationsAgree(a, b));
  EfGameSolver solver(a, b);
  EXPECT_FALSE(*solver.DuplicatorWins(0));
  EXPECT_FALSE(*solver.DuplicatorWins(2));
  PebbleGameSolver pebble(a, b, 2);
  EXPECT_FALSE(*pebble.DuplicatorWins(0));
  // Agreement on the nullary fact is invisible thereafter.
  Structure c(sig, 3);
  c.AddTuple(0, {});
  EXPECT_TRUE(game_engine::NullaryRelationsAgree(a, c));
  EfGameSolver ok_solver(a, c);
  EXPECT_TRUE(*ok_solver.DuplicatorWins(2));
}

// ---------------------------------------------------------------------------
// Long-horizon queries: the packed key must not wrap at 256 rounds the way
// the seed's one-char memo key did.
// ---------------------------------------------------------------------------

TEST(LongHorizonTest, HighRoundCountsDoNotCollideWithLowOnes) {
  // Seed bug reproduction: with chr-truncated keys, DuplicatorWins(257)
  // (spoiler win, sets 1 vs 2) memoized under the same key as rounds == 1,
  // so a following DuplicatorWins(1) (duplicator win) read back `false`.
  Structure a = MakeSet(1);
  Structure b = MakeSet(2);
  EfGameSolver solver(a, b);
  EXPECT_FALSE(*solver.DuplicatorWins(257));
  EXPECT_TRUE(*solver.DuplicatorWins(1));
  EXPECT_FALSE(*solver.DuplicatorWins(300));

  Structure c = MakeSet(3);
  Structure d = MakeSet(3);
  EfGameSolver eq_solver(c, d);
  EXPECT_TRUE(*eq_solver.DuplicatorWins(300));
}

}  // namespace
}  // namespace fmtk
