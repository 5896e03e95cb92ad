// E9 — Theorem 3.8, Hanf locality, and the cycles example.
//
// Claim: G1 = two m-cycles and G2 = one 2m-cycle satisfy G1 ⇆r G2 exactly
// while m > 2r + 1, yet they differ on connectivity — so connectivity is
// not FO. Same shape for the tree variant (2m-chain vs m-chain ⊎ m-cycle).
// HanfTest asserts both; this suite times the radius search and the
// neighborhood-type sweeps, and Theorem 3.11's bounded-degree evaluator,
// whose cost is one type-histogram pass.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "core/algorithmic/bounded_degree.h"
#include "core/locality/hanf.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "logic/parser.h"
#include "structures/generators.h"

namespace {

using fmtk::BoundedDegreeEvaluator;
using fmtk::HanfEquivalent;
using fmtk::LocalityEngine;
using fmtk::LocalityStats;
using fmtk::MakeDirectedCycle;
using fmtk::MakeDirectedPath;
using fmtk::MakeDisjointCycles;
using fmtk::MakeGrid;
using fmtk::MakePathPlusCycle;
using fmtk::NeighborhoodSweep;
using fmtk::NeighborhoodTypeIndex;
using fmtk::Structure;

// --- --json mode: the engine's radius sweep --------------------------------
//
// One adjacency per structure, balls extended radius-incrementally, types
// resolved by canonical code.

// BFS work from the engines, type-resolution work from their shared index
// (absent where the index is the evaluator's own).
struct RunStats {
  LocalityStats balls;
  std::optional<NeighborhoodTypeIndex::Stats> types;
};

std::optional<std::size_t> EngineLargestHanfRadius(const Structure& a,
                                                  const Structure& b,
                                                  std::size_t max_radius,
                                                  RunStats* stats) {
  if (!(a.signature() == b.signature()) ||
      a.domain_size() != b.domain_size()) {
    return std::nullopt;
  }
  NeighborhoodTypeIndex index;
  LocalityEngine engine_a(a);
  LocalityEngine engine_b(b);
  NeighborhoodSweep sweep_a = engine_a.NewSweep();
  NeighborhoodSweep sweep_b = engine_b.NewSweep();
  std::optional<std::size_t> best;
  for (std::size_t r = 0; r <= max_radius; ++r) {
    if (sweep_a.HistogramAt(r, index) != sweep_b.HistogramAt(r, index)) {
      break;
    }
    best = r;
  }
  stats->balls = engine_a.stats();
  stats->balls += engine_b.stats();
  stats->types = index.stats();
  return best;
}

void EmitJsonLine(const char* bench, std::size_t n, double wall_ms,
                  std::size_t result, const RunStats& stats) {
  std::printf(
      "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,"
      "\"result\":%zu,\"balls_extracted\":%llu,\"bfs_node_visits\":%llu,",
      bench, n, wall_ms, result,
      static_cast<unsigned long long>(stats.balls.balls_extracted),
      static_cast<unsigned long long>(stats.balls.bfs_node_visits));
  if (stats.types.has_value()) {
    std::printf(
        "\"canon_codes\":%llu,\"canon_hits\":%llu,\"iso_tests\":%llu,",
        static_cast<unsigned long long>(stats.types->canon_codes),
        static_cast<unsigned long long>(stats.types->canon_hits),
        static_cast<unsigned long long>(stats.types->iso_tests));
  }
  std::printf("\"frontier_reuses\":%llu,\"balls_shifted\":%llu}\n",
              static_cast<unsigned long long>(stats.balls.frontier_reuses),
              static_cast<unsigned long long>(stats.balls.balls_shifted));
}

// Wall-clock is the best of `reps` runs; counters come from the last run.
template <typename Fn>
void TimeAndEmit(const char* bench, std::size_t n, int reps, const Fn& fn) {
  double best_ms = 0;
  std::size_t result = 0;
  RunStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    RunStats run_stats;
    const auto start = std::chrono::steady_clock::now();
    result = fn(&run_stats);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best_ms) {
      best_ms = ms;
    }
    stats = run_stats;
  }
  EmitJsonLine(bench, n, best_ms, result, stats);
}

void RunJsonSuite() {
  for (std::size_t m : {5, 9, 13, 17, 21}) {
    Structure g1 = MakeDisjointCycles(2, m);
    Structure g2 = MakeDirectedCycle(2 * m);
    TimeAndEmit("hanf_cycles", 2 * m, 5, [&](RunStats* stats) {
      auto r = EngineLargestHanfRadius(g1, g2, m, stats);
      return r.has_value() ? *r + 1 : 0;  // 0 = none
    });
  }
  for (std::size_t m : {8, 12, 16}) {
    Structure g1 = MakeDirectedPath(2 * m);
    Structure g2 = MakePathPlusCycle(m);
    TimeAndEmit("hanf_chain_vs_lollipop", 2 * m, 5, [&](RunStats* stats) {
      auto r = EngineLargestHanfRadius(g1, g2, m, stats);
      return r.has_value() ? *r + 1 : 0;
    });
  }
  // The toolbox workload's three rank-2 sentences (radius 4) on its largest
  // inputs. The first Evaluate decides the sentence and caches the verdict
  // under the clipped histogram, so each timed call is the histogram pass
  // plus a cache hit; counters are that call's. result = the verdict.
  const char* const sentences[] = {"forall x. exists y. E(x,y)",
                                   "exists x. forall y. ~E(y,x)",
                                   "exists x. exists y. E(x,y) & E(y,x)"};
  const Structure cycle = MakeDirectedCycle(4096);
  const Structure grid = MakeGrid(64, 64);
  const std::pair<const char*, const Structure*> inputs[] = {
      {"bounded_degree_cycle", &cycle}, {"bounded_degree_grid", &grid}};
  for (const auto& [name, g] : inputs) {
    for (const char* text : sentences) {
      BoundedDegreeEvaluator evaluator =
          *BoundedDegreeEvaluator::Create(*fmtk::ParseFormula(text));
      (void)evaluator.Evaluate(*g);
      TimeAndEmit(name, g->domain_size(), 5, [&](RunStats* stats) {
        const LocalityStats before = evaluator.locality_stats();
        const bool verdict = *evaluator.Evaluate(*g);
        const LocalityStats& after = evaluator.locality_stats();
        stats->balls.balls_extracted =
            after.balls_extracted - before.balls_extracted;
        stats->balls.balls_shifted = after.balls_shifted - before.balls_shifted;
        stats->balls.bfs_node_visits =
            after.bfs_node_visits - before.bfs_node_visits;
        stats->balls.frontier_reuses =
            after.frontier_reuses - before.frontier_reuses;
        return verdict ? std::size_t{1} : std::size_t{0};
      });
    }
  }
}

void BM_HanfEquivalence(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Structure g1 = MakeDisjointCycles(2, m);
  Structure g2 = MakeDirectedCycle(2 * m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HanfEquivalent(g1, g2, (m - 2) / 2));
  }
}
BENCHMARK(BM_HanfEquivalence)->DenseRange(5, 13, 2);

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
