// E4 — Ehrenfeucht–Fraïssé games and the EVEN-on-sets example (survey §3.2).
//
// Claims: (a) duplicator wins the n-round game on any two sets of size
// >= n (so EVEN is not FO over sets — A_n = 2n-set vs B_n = (2n+1)-set);
// (b) A ∼Gn B coincides with rank-n type equality (the fundamental
// theorem); (c) exact game search cost explodes with rounds — the
// "combinatorially heavy" warning. EfGameTest, RankTypeTest and
// GameStatsTest assert (a)–(c); this suite times the searches.

// `--json` skips the google-benchmark harness and emits one
// {"bench":...,"n":...,"wall_ms":...,"nodes":...} line per run, for
// scripted before/after comparisons of the game-engine search cost.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/games/ef_game.h"
#include "core/games/pebble_game.h"
#include "core/types/rank_type.h"
#include "structures/generators.h"

namespace {

using fmtk::EfGameSolver;
using fmtk::MakeDirectedCycle;
using fmtk::MakeLinearOrder;
using fmtk::MakeSet;
using fmtk::PebbleGameSolver;
using fmtk::RankTypeIndex;
using fmtk::Structure;

void BM_EfGameRounds(benchmark::State& state) {
  const std::size_t rounds = static_cast<std::size_t>(state.range(0));
  Structure a = MakeDirectedCycle(5);
  Structure b = MakeDirectedCycle(6);
  for (auto _ : state) {
    EfGameSolver solver(a, b);
    benchmark::DoNotOptimize(solver.DuplicatorWins(rounds));
  }
}
BENCHMARK(BM_EfGameRounds)->DenseRange(1, 4);

void BM_RankTypeEquivalence(benchmark::State& state) {
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Structure a = MakeDirectedCycle(5);
  Structure b = MakeDirectedCycle(6);
  for (auto _ : state) {
    RankTypeIndex index;
    benchmark::DoNotOptimize(index.EquivalentUpToRank(a, b, rank));
  }
}
BENCHMARK(BM_RankTypeEquivalence)->DenseRange(1, 4);

// --json: one shot per configuration, wall-clock timed by hand, machine
// readable. nodes comes from the solver's GameStats.
void EmitJsonLine(const char* bench, std::size_t n, double wall_ms,
                  unsigned long long nodes) {
  std::printf("{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,\"nodes\":%llu}\n",
              bench, n, wall_ms, nodes);
}

template <typename Fn>
double TimedMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void RunJsonSuite() {
  // Linear orders at the sharp 2^n - 1 threshold — the headline family for
  // the search-core node counts (n indexes the round count).
  for (std::size_t n = 2; n <= 4; ++n) {
    const std::size_t m = (std::size_t{1} << n) - 1;
    Structure a = MakeLinearOrder(m);
    Structure b = MakeLinearOrder(m + 1);
    EfGameSolver solver(a, b);
    const double ms = TimedMs([&] { (void)*solver.DuplicatorWins(n); });
    EmitJsonLine("ef_linear_order", n, ms, solver.nodes_explored());
  }
  // Cycle family: C5 vs C6 over growing round counts (n indexes rounds).
  for (std::size_t r = 1; r <= 4; ++r) {
    Structure a = MakeDirectedCycle(5);
    Structure b = MakeDirectedCycle(6);
    EfGameSolver solver(a, b);
    const double ms = TimedMs([&] { (void)*solver.DuplicatorWins(r); });
    EmitJsonLine("ef_cycle5v6", r, ms, solver.nodes_explored());
  }
  // Pure sets: the swap-class pruning collapses these almost entirely.
  for (std::size_t n = 1; n <= 4; ++n) {
    Structure a = MakeSet(2 * n);
    Structure b = MakeSet(2 * n + 1);
    EfGameSolver solver(a, b);
    const double ms = TimedMs([&] { (void)*solver.DuplicatorWins(n); });
    EmitJsonLine("ef_sets", n, ms, solver.nodes_explored());
  }
  // 2-pebble game on the cycle pair (n indexes rounds).
  for (std::size_t r = 1; r <= 5; ++r) {
    Structure a = MakeDirectedCycle(5);
    Structure b = MakeDirectedCycle(6);
    PebbleGameSolver solver(a, b, 2);
    const double ms = TimedMs([&] { (void)*solver.DuplicatorWins(r); });
    EmitJsonLine("pebble2_cycle5v6", r, ms, solver.nodes_explored());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      RunJsonSuite();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
