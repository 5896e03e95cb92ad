// E8 — Theorem 3.6, Gaifman locality, and the canonical TC counterexample.
//
// Claim: on a long chain with points a, b farther than 2r from each other
// and from the endpoints, N_r(a,b) ≅ N_r(b,a) while only (a,b) is in the
// transitive closure — a Gaifman-locality violation at every radius the
// chain can accommodate — while an FO control query is local at a fixed
// small radius. GaifmanLocalTest asserts both; this suite times the
// violation search.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/locality/gaifman_local.h"
#include "core/locality/locality_engine.h"
#include "queries/relation_query.h"
#include "structures/generators.h"

namespace {

using fmtk::FindGaifmanViolation;
using fmtk::LocalityEngine;
using fmtk::LocalityStats;
using fmtk::MakeDirectedPath;
using fmtk::Relation;
using fmtk::RelationQuery;
using fmtk::Structure;

// --- --json mode: the engine path ----------------------------------------
//
// One shared adjacency across radii, neighborhoods compared by canonical
// code.

// Scans radii 0..max_radius, counting how many have a violation — the
// E8 "largest violated radius" loop.
template <typename FindFn>
std::size_t CountViolatedRadii(std::size_t max_radius, const FindFn& find) {
  std::size_t violated = 0;
  for (std::size_t r = 0; r <= max_radius; ++r) {
    if (find(r).has_value()) {
      ++violated;
    } else {
      break;
    }
  }
  return violated;
}

void EmitJsonLine(const char* bench, std::size_t n, double wall_ms,
                  std::size_t result, const LocalityStats& stats) {
  std::printf(
      "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,"
      "\"result\":%zu,\"balls_extracted\":%llu,\"bfs_node_visits\":%llu,"
      "\"frontier_reuses\":%llu,\"balls_shifted\":%llu}\n",
      bench, n, wall_ms, result,
      static_cast<unsigned long long>(stats.balls_extracted),
      static_cast<unsigned long long>(stats.bfs_node_visits),
      static_cast<unsigned long long>(stats.frontier_reuses),
      static_cast<unsigned long long>(stats.balls_shifted));
}

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
  RelationQuery tc = RelationQuery::TransitiveClosure();
  for (std::size_t n : {8, 16, 24, 32}) {
    Structure chain = MakeDirectedPath(n);
    Relation tc_out = *tc.Evaluate(chain);
    TimeAndEmit("gaifman_tc_chain", n, 5, [&](LocalityStats* stats) {
      LocalityEngine engine(chain);
      std::size_t violated = CountViolatedRadii(2, [&](std::size_t r) {
        return *FindGaifmanViolation(engine, tc_out, r);
      });
      *stats = engine.stats();
      return violated;
    });
  }
}

void BM_FindViolation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure chain = MakeDirectedPath(n);
  Relation tc_out = *RelationQuery::TransitiveClosure().Evaluate(chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindGaifmanViolation(chain, tc_out, 2));
  }
}
BENCHMARK(BM_FindViolation)->RangeMultiplier(2)->Range(8, 32);

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
