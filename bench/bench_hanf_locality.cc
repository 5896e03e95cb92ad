// E9 — Theorem 3.8, Hanf locality, and the cycles example.
//
// Claim reproduced: G1 = two m-cycles and G2 = one 2m-cycle satisfy
// G1 ⇆r G2 exactly while m > 2r + 1, yet they differ on connectivity — so
// connectivity is not FO. Same shape for the tree variant (2m-chain vs
// m-chain ⊎ m-cycle).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/locality/hanf.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "queries/boolean_query.h"
#include "structures/generators.h"

namespace {

using fmtk::BooleanQuery;
using fmtk::HanfEquivalent;
using fmtk::LargestHanfRadius;
using fmtk::LocalityEngine;
using fmtk::LocalityStats;
using fmtk::MakeDirectedCycle;
using fmtk::MakeDirectedPath;
using fmtk::MakeDisjointCycles;
using fmtk::MakePathPlusCycle;
using fmtk::NeighborhoodSweep;
using fmtk::NeighborhoodTypeIndex;
using fmtk::Structure;

void PrintTable() {
  std::printf("=== E9: Hanf locality (Thm 3.8) — the cycles example ===\n");
  std::printf(
      "paper: two m-cycles vs one 2m-cycle agree up to radius r while "
      "m > 2r+1, but differ on CONN\n\n");
  BooleanQuery conn = BooleanQuery::Connectivity();
  std::printf("%4s %12s %16s %10s %10s\n", "m", "predicted r*",
              "measured r*", "CONN(G1)", "CONN(G2)");
  for (std::size_t m = 3; m <= 13; m += 2) {
    Structure g1 = MakeDisjointCycles(2, m);
    Structure g2 = MakeDirectedCycle(2 * m);
    // Predicted: largest r with m > 2r+1, i.e. r* = ceil(m/2) - 1 ... for
    // integer arithmetic: r* = (m - 2) / 2.
    const std::size_t predicted = (m - 2) / 2;
    auto measured = LargestHanfRadius(g1, g2, m);
    std::printf("%4zu %12zu %16s %10s %10s\n", m, predicted,
                measured.has_value() ? std::to_string(*measured).c_str()
                                     : "none",
                *conn.Evaluate(g1) ? "yes" : "no",
                *conn.Evaluate(g2) ? "yes" : "no");
  }
  std::printf("\n-- tree variant: chain(2m) vs chain(m) + cycle(m) --\n");
  BooleanQuery tree = BooleanQuery::Tree();
  std::printf("%4s %16s %10s %10s\n", "m", "measured r*", "TREE(G1)",
              "TREE(G2)");
  for (std::size_t m = 4; m <= 12; m += 2) {
    Structure g1 = MakeDirectedPath(2 * m);
    Structure g2 = MakePathPlusCycle(m);
    auto measured = LargestHanfRadius(g1, g2, m);
    std::printf("%4zu %16s %10s %10s\n", m,
                measured.has_value() ? std::to_string(*measured).c_str()
                                     : "none",
                *tree.Evaluate(g1) ? "yes" : "no",
                *tree.Evaluate(g2) ? "yes" : "no");
  }
  std::printf(
      "\nshape check: measured r* tracks (m-2)/2 — the 2r+1 crossover; the "
      "query columns always differ.\n\n");
}

// --- --json mode: the engine's radius sweep --------------------------------
//
// One adjacency per structure, balls extended radius-incrementally, types
// resolved by canonical code.

std::optional<std::size_t> EngineLargestHanfRadius(const Structure& a,
                                                  const Structure& b,
                                                  std::size_t max_radius,
                                                  LocalityStats* stats) {
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
  if (stats != nullptr) {
    *stats = engine_a.stats();
    *stats += engine_b.stats();
  }
  return best;
}

void EmitJsonLine(const char* bench, std::size_t n, double wall_ms,
                  std::size_t result, const LocalityStats& stats) {
  std::printf(
      "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,"
      "\"result\":%zu,\"balls_extracted\":%llu,\"bfs_node_visits\":%llu,"
      "\"canon_codes\":%llu,\"canon_hits\":%llu,\"iso_tests\":%llu,"
      "\"frontier_reuses\":%llu}\n",
      bench, n, wall_ms, result,
      static_cast<unsigned long long>(stats.balls_extracted),
      static_cast<unsigned long long>(stats.bfs_node_visits),
      static_cast<unsigned long long>(stats.canon_codes),
      static_cast<unsigned long long>(stats.canon_hits),
      static_cast<unsigned long long>(stats.iso_tests),
      static_cast<unsigned long long>(stats.frontier_reuses));
}

// Wall-clock is the best of `reps` runs; counters come from the last run.
template <typename Fn>
void TimeAndEmit(const char* bench, std::size_t n, int reps, const Fn& fn) {
  double best_ms = 0;
  std::size_t result = 0;
  LocalityStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    LocalityStats run_stats;
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
    TimeAndEmit("hanf_cycles", 2 * m, 5, [&](LocalityStats* stats) {
      auto r = EngineLargestHanfRadius(g1, g2, m, stats);
      return r.has_value() ? *r + 1 : 0;  // 0 = none
    });
  }
  for (std::size_t m : {8, 12, 16}) {
    Structure g1 = MakeDirectedPath(2 * m);
    Structure g2 = MakePathPlusCycle(m);
    TimeAndEmit("hanf_chain_vs_lollipop", 2 * m, 5, [&](LocalityStats* stats) {
      auto r = EngineLargestHanfRadius(g1, g2, m, stats);
      return r.has_value() ? *r + 1 : 0;
    });
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
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
