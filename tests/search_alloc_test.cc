// Guards the allocation-free inner loops of the game and isomorphism
// searches and of neighborhood materialization. This binary replaces the global operator new with a counting
// one, runs each search twice with the same structures (a small solve and
// a much larger one) and asserts that the larger solve allocates no more
// than a small constant beyond the smaller one: the setup (occurrence
// lists, swap classes, signatures, Zobrist codes) is identical, so any
// allocation per node or per candidate pair would show up in proportion
// to the extra work.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "core/games/ef_game.h"
#include "core/games/pebble_game.h"
#include "core/locality/locality_engine.h"
#include "structures/generators.h"
#include "structures/isomorphism.h"
#include "structures/signature.h"
#include "structures/structure.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// None of the three is inlined: GCC would otherwise pair the malloc and
// free inside them with the operator new and delete of the call site and
// reject the program under -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fmtk {
namespace {

// What the larger solve may allocate beyond the smaller one. The
// transposition table doubles its capacity as it fills, and each rehash
// allocates three arrays (slots, hashes, occupancy): 43 times the nodes
// cost about six more rehashes, 18 allocations. The per-depth swap-class
// marks grow geometrically with the deepest search level, one or two more
// allocations for one more round. The isomorphism search's trail grows
// the same way with its longest assignment chain. When this test was
// written, the larger solves allocated 13 (EF), 16 (pebble) and 0
// (isomorphism) more than the smaller ones. One allocation per node or
// per candidate pair costs hundreds to thousands more.
constexpr std::size_t kPerSolveSlack = 32;

template <typename Fn>
std::size_t AllocationsOf(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SearchAllocTest, EfGameAllocationsDoNotGrowWithNodes) {
  const Structure a = MakeLinearOrder(7);
  const Structure b = MakeLinearOrder(8);
  GameStats small_stats;
  GameStats big_stats;
  bool small_wins = true;
  bool big_wins = true;
  // L7 ≡3 L8 (Theorem 3.1 threshold 2^3 - 1): the duplicator wins both
  // games, and the third round multiplies the positions to refute (37 and
  // 429 nodes when this test was written).
  const std::size_t small = AllocationsOf([&] {
    EfGameSolver solver(a, b);
    small_wins = solver.DuplicatorWins(2).value();
    small_stats = solver.stats();
  });
  const std::size_t big = AllocationsOf([&] {
    EfGameSolver solver(a, b);
    big_wins = solver.DuplicatorWins(3).value();
    big_stats = solver.stats();
  });
  EXPECT_TRUE(small_wins);
  EXPECT_TRUE(big_wins);
  ASSERT_GE(big_stats.nodes_explored, 5 * small_stats.nodes_explored);
  EXPECT_LE(big, small + kPerSolveSlack)
      << "nodes " << small_stats.nodes_explored << " -> "
      << big_stats.nodes_explored;
}

TEST(SearchAllocTest, PebbleGameAllocationsDoNotGrowWithNodes) {
  const Structure a = MakeDirectedCycle(7);
  const Structure b = MakeDirectedCycle(8);
  GameStats small_stats;
  GameStats big_stats;
  bool small_wins = false;
  bool big_wins = true;
  // 15 and 650 nodes when this test was written.
  const std::size_t small = AllocationsOf([&] {
    PebbleGameSolver solver(a, b, 3);
    small_wins = solver.DuplicatorWins(2).value();
    small_stats = solver.stats();
  });
  const std::size_t big = AllocationsOf([&] {
    PebbleGameSolver solver(a, b, 3);
    big_wins = solver.DuplicatorWins(4).value();
    big_stats = solver.stats();
  });
  EXPECT_TRUE(small_wins);
  EXPECT_FALSE(big_wins);
  ASSERT_GE(big_stats.nodes_explored, 5 * small_stats.nodes_explored);
  EXPECT_LE(big, small + kPerSolveSlack)
      << "nodes " << small_stats.nodes_explored << " -> "
      << big_stats.nodes_explored;
}

// The cycle over `m` elements whose consecutive runs of `arity` elements
// form the rows of relation R, `copies` times side by side: arity 2 is the
// directed cycle, arity 3 the same shape over a ternary signature.
Structure RunCycles(std::size_t arity, std::size_t copies, std::size_t m) {
  auto signature = std::make_shared<Signature>();
  signature->AddRelation("R", arity);
  Structure s(signature, copies * m);
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      Tuple row;
      for (std::size_t j = 0; j < arity; ++j) {
        row.push_back(static_cast<Element>(c * m + (i + j) % m));
      }
      s.AddTuple(0, row);
    }
  }
  return s;
}

// One 2m-cycle against two m-cycles: every element has the same atomic
// invariant, so the search only fails when an assignment chain closes.
// With element 0 pinned to 0 it fails once around the cycle; unpinned, it
// retries that from each of the 2m images of element 0, doing about 2m
// times the work from the same setup.
void ExpectIsoAllocationsDoNotGrowWithWork(std::size_t arity) {
  const std::size_t m = 16;
  const Structure a = RunCycles(arity, 1, 2 * m);
  const Structure b = RunCycles(arity, 2, m);
  const Tuple pinned = {0};
  bool small_iso = true;
  bool big_iso = true;
  const std::size_t small = AllocationsOf(
      [&] { small_iso = AreIsomorphic(a, b, pinned, pinned); });
  const std::size_t big = AllocationsOf([&] { big_iso = AreIsomorphic(a, b); });
  EXPECT_FALSE(small_iso);
  EXPECT_FALSE(big_iso);
  EXPECT_LE(big, small + kPerSolveSlack) << "arity " << arity;
}

TEST(SearchAllocTest, IsomorphismAllocationsDoNotGrowWithWorkBinary) {
  ExpectIsoAllocationsDoNotGrowWithWork(2);
}

TEST(SearchAllocTest, IsomorphismAllocationsDoNotGrowWithWorkTernary) {
  ExpectIsoAllocationsDoNotGrowWithWork(3);
}

// Materializing a neighborhood maps each induced row into one reused row
// and copies it into the relation's row store. What may grow with the row
// count is the geometric growth of the row store, its membership index
// and the BFS buffers: 8 allocations from 4 to 36 rows when this test was
// written. One allocation per row costs 32 more.
constexpr std::size_t kNeighborhoodSlack = 16;

TEST(SearchAllocTest, NeighborhoodAllocationsDoNotGrowWithRows) {
  const Structure grid = MakeGrid(20, 20);
  const LocalityEngine engine(grid);
  std::size_t small_rows = 0;
  std::size_t big_rows = 0;
  // Element 210 is interior (row 10, column 10): its radius-1 ball has 4
  // induced edges and its radius-3 ball 36.
  const std::size_t small = AllocationsOf([&] {
    small_rows = engine.NeighborhoodAt({210}, 1).structure.TupleCount();
  });
  const std::size_t big = AllocationsOf([&] {
    big_rows = engine.NeighborhoodAt({210}, 3).structure.TupleCount();
  });
  ASSERT_GE(big_rows, 8 * small_rows);
  EXPECT_LE(big, small + kNeighborhoodSlack)
      << "rows " << small_rows << " -> " << big_rows;
}

}  // namespace
}  // namespace fmtk
