// X5/E16 (ext) — the "library of winning strategies" the survey calls for
// (§3.2, citing [10]).
//
// Claims: the set-mirror and order-gap strategies are verified winning
// strategies exactly where the theory predicts (sets >= n; orders at the
// 2^n - 1 threshold), and verifying a strategy is orders of magnitude
// cheaper than solving the game exactly — one duplicator reply per spoiler
// line instead of minimax over all replies. SetMirrorStrategyTest and
// OrderGapStrategyTest assert both; this suite times the referee against
// the solver.

// `--json` skips the google-benchmark harness and emits one
// {"bench":...,"n":...,"wall_ms":...,"nodes":...} line per run: the
// strategy referee's visited positions vs the exact solver's, on the same
// linear-order instances.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "core/games/ef_game.h"
#include "core/games/linear_order.h"
#include "core/games/strategy.h"
#include "structures/generators.h"

namespace {

using fmtk::EfGameSolver;
using fmtk::MakeLinearOrder;
using fmtk::MakeSet;
using fmtk::OrderGapStrategy;
using fmtk::SetMirrorStrategy;
using fmtk::StrategySurvives;
using fmtk::Structure;

void BM_StrategyReferee(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = (std::size_t{1} << n) - 1;
  Structure a = MakeLinearOrder(m);
  Structure b = MakeLinearOrder(m + 1);
  OrderGapStrategy gap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrategySurvives(a, b, n, gap));
  }
}
BENCHMARK(BM_StrategyReferee)->DenseRange(2, 3);

void BM_ExactSolver(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = (std::size_t{1} << n) - 1;
  Structure a = MakeLinearOrder(m);
  Structure b = MakeLinearOrder(m + 1);
  for (auto _ : state) {
    EfGameSolver solver(a, b);
    benchmark::DoNotOptimize(solver.DuplicatorWins(n));
  }
}
BENCHMARK(BM_ExactSolver)->DenseRange(2, 3);

void BM_SetMirror(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure a = MakeSet(2 * n);
  Structure b = MakeSet(2 * n + 1);
  SetMirrorStrategy mirror;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrategySurvives(a, b, n, mirror));
  }
}
BENCHMARK(BM_SetMirror)->DenseRange(1, 4);

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
  // Referee vs exact solver on the sharp-threshold linear orders.
  OrderGapStrategy gap;
  for (std::size_t n = 2; n <= 4; ++n) {
    const std::size_t m = (std::size_t{1} << n) - 1;
    Structure a = MakeLinearOrder(m);
    Structure b = MakeLinearOrder(m + 1);
    std::uint64_t referee_nodes = 0;
    const double referee_ms = TimedMs(
        [&] { (void)*StrategySurvives(a, b, n, gap, 20'000'000,
                                      &referee_nodes); });
    EmitJsonLine("referee_linear_order", n, referee_ms, referee_nodes);
    EfGameSolver solver(a, b);
    const double solver_ms = TimedMs([&] { (void)*solver.DuplicatorWins(n); });
    EmitJsonLine("solver_linear_order", n, solver_ms,
                 solver.nodes_explored());
  }
  SetMirrorStrategy mirror;
  for (std::size_t n = 2; n <= 4; ++n) {
    Structure a = MakeSet(2 * n);
    Structure b = MakeSet(2 * n + 1);
    std::uint64_t referee_nodes = 0;
    const double ms = TimedMs(
        [&] { (void)*StrategySurvives(a, b, n, mirror, 20'000'000,
                                      &referee_nodes); });
    EmitJsonLine("referee_sets", n, ms, referee_nodes);
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
