// E14 — Datalog fixed points: the survey's non-FO contrast class.
//
// Claims: same-generation and transitive closure need a number of fixpoint
// rounds that grows with the input (no FO formula can do that), and the
// compiled, index-driven semi-naive engine beats naive iteration — fewer
// derivations (each derivable combination exactly once) and posting-list
// probes instead of relation scans. ClaimsTest and DatalogEvalTest assert
// the counters; this suite times the engines. The seed's
// per-position semi-naive interpreter, the earlier "before" point, is
// gone; its rows remain in BENCH_pr6.json through BENCH_pr10.json.
//
// `--json` skips the google-benchmark harness and emits one
// {"bench":...,"n":...,"wall_ms":...,"tuples_derived":...} line per
// configuration (wall_ms is the best of a few repetitions), for scripted
// before/after comparisons.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "structures/generators.h"

namespace {

using fmtk::DatalogProgram;
using fmtk::DatalogStats;
using fmtk::DatalogStrategy;
using fmtk::EvaluateDatalog;
using fmtk::MakeDirectedPath;
using fmtk::MakeFullBinaryTree;
using fmtk::Structure;

// --json: wall-clock is the best of `reps` runs, counters from the last.
void EmitJsonLine(const std::string& bench, std::size_t n,
                  const DatalogProgram& program, const Structure& base,
                  DatalogStrategy strategy, int reps) {
  double best_ms = 0;
  DatalogStats stats;
  for (int r = 0; r < reps; ++r) {
    DatalogStats run_stats;
    const auto start = std::chrono::steady_clock::now();
    (void)*EvaluateDatalog(program, base, strategy, &run_stats);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best_ms) {
      best_ms = ms;
    }
    stats = run_stats;
  }
  std::printf(
      "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,\"iterations\":%zu,"
      "\"tuples_derived\":%llu,\"tuples_new\":%llu,\"index_probes\":%llu,"
      "\"tuples_scanned\":%llu}\n",
      bench.c_str(), n, best_ms, stats.iterations,
      static_cast<unsigned long long>(stats.tuples_derived),
      static_cast<unsigned long long>(stats.tuples_new),
      static_cast<unsigned long long>(stats.index_probes),
      static_cast<unsigned long long>(stats.tuples_scanned));
}

void RunJsonSuite() {
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  const DatalogProgram sg = DatalogProgram::SameGeneration();
  const DatalogProgram nltc = DatalogProgram::NonlinearTransitiveClosure();
  for (std::size_t n : {8, 16, 32, 64}) {
    Structure chain = MakeDirectedPath(n);
    EmitJsonLine("tc_chain_compiled", n, tc, chain,
                 DatalogStrategy::kSemiNaive, 5);
    EmitJsonLine("tc_chain_naive", n, tc, chain, DatalogStrategy::kNaive, 3);
  }
  for (std::size_t depth = 2; depth <= 6; ++depth) {
    Structure tree = MakeFullBinaryTree(depth);
    const std::size_t n = tree.domain_size();
    EmitJsonLine("sg_tree_compiled", n, sg, tree,
                 DatalogStrategy::kSemiNaive, 3);
  }
  for (std::size_t n : {24, 48}) {
    Structure chain = MakeDirectedPath(n);
    EmitJsonLine("nltc_chain_compiled", n, nltc, chain,
                 DatalogStrategy::kSemiNaive, 3);
  }
}

void BM_TcCompiled(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure chain = MakeDirectedPath(n);
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateDatalog(tc, chain, DatalogStrategy::kSemiNaive));
  }
}
BENCHMARK(BM_TcCompiled)->RangeMultiplier(2)->Range(8, 64);

void BM_TcNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure chain = MakeDirectedPath(n);
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateDatalog(tc, chain, DatalogStrategy::kNaive));
  }
}
BENCHMARK(BM_TcNaive)->RangeMultiplier(2)->Range(8, 64);

void BM_SameGenerationCompiled(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  Structure tree = MakeFullBinaryTree(depth);
  DatalogProgram sg = DatalogProgram::SameGeneration();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateDatalog(sg, tree, DatalogStrategy::kSemiNaive));
  }
}
BENCHMARK(BM_SameGenerationCompiled)->DenseRange(2, 6);

void BM_NonlinearTcCompiled(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure chain = MakeDirectedPath(n);
  DatalogProgram nltc = DatalogProgram::NonlinearTransitiveClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateDatalog(nltc, chain, DatalogStrategy::kSemiNaive));
  }
}
BENCHMARK(BM_NonlinearTcCompiled)->RangeMultiplier(2)->Range(16, 64);

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
