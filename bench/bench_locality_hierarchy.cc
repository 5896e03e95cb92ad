// E10 — Theorem 3.9: Hanf-local ⊆ Gaifman-local ⊆ BNDP.
//
// The three tools fire on the same witnesses as the hierarchy predicts: a
// query failing BNDP (TC on chains) also fails Gaifman locality, and a
// Boolean query distinguishing ⇆r-equivalent pairs (CONN on the cycle
// pairs) is not Hanf-local at r. BndpTest, GaifmanLocalTest and HanfTest
// assert this on those witnesses; this suite times the engine path.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include "core/locality/bndp.h"
#include "core/locality/gaifman_local.h"
#include "core/locality/hanf.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "queries/relation_query.h"
#include "structures/generators.h"

namespace {

using fmtk::DegreeCount;
using fmtk::FindGaifmanViolation;
using fmtk::LocalityEngine;
using fmtk::LocalityStats;
using fmtk::MakeDirectedCycle;
using fmtk::MakeDirectedPath;
using fmtk::MakeDisjointCycles;
using fmtk::NeighborhoodSweep;
using fmtk::NeighborhoodTypeIndex;
using fmtk::Relation;
using fmtk::RelationQuery;
using fmtk::Structure;

// --- --json mode ----------------------------------------------------------
//
// The E10 hierarchy pass through the locality engine: Hanf radius search
// on the cycle pairs and the Gaifman violation scan on TC chains.

// BFS work from the engines; type-resolution work from the Hanf leg's
// index (the Gaifman leg's indexes are local to each search).
struct RunStats {
  LocalityStats balls;
  std::optional<NeighborhoodTypeIndex::Stats> types;
};

std::optional<std::size_t> EngineLargestHanfRadius(const Structure& a,
                                                  const Structure& b,
                                                  std::size_t max_radius,
                                                  RunStats* stats) {
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
  std::printf("\"frontier_reuses\":%llu}\n",
              static_cast<unsigned long long>(stats.balls.frontier_reuses));
}

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
  // Hanf leg: largest radius where the cycle pair is ⇆r-equivalent.
  for (std::size_t m : {9, 13, 17, 21}) {
    Structure g1 = MakeDisjointCycles(2, m);
    Structure g2 = MakeDirectedCycle(2 * m);
    TimeAndEmit("hierarchy_hanf", 2 * m, 9, [&](RunStats* stats) {
      auto r = EngineLargestHanfRadius(g1, g2, m, stats);
      return r.has_value() ? *r + 1 : 0;  // 0 = none
    });
  }
  // Gaifman leg: violation scan for TC on chains, radii 0..2.
  RelationQuery tc = RelationQuery::TransitiveClosure();
  for (std::size_t n : {16, 24, 32}) {
    Structure chain = MakeDirectedPath(n);
    Relation tc_out = *tc.Evaluate(chain);
    TimeAndEmit("hierarchy_gaifman", n, 9, [&](RunStats* stats) {
      LocalityEngine engine(chain);
      std::size_t violated = 0;
      for (std::size_t r = 0; r <= 2; ++r) {
        if ((*FindGaifmanViolation(engine, tc_out, r)).has_value()) {
          ++violated;
        }
      }
      stats->balls = engine.stats();
      return violated;
    });
  }
}

void BM_AllThreeToolsOnTc(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure chain = MakeDirectedPath(n);
  RelationQuery tc = RelationQuery::TransitiveClosure();
  for (auto _ : state) {
    Relation out = *tc.Evaluate(chain);
    benchmark::DoNotOptimize(DegreeCount(out, n));
    benchmark::DoNotOptimize(FindGaifmanViolation(chain, out, 1));
  }
}
BENCHMARK(BM_AllThreeToolsOnTc)->RangeMultiplier(2)->Range(8, 32);

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
