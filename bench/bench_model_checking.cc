// E1 — Combined complexity of FO model checking (survey §2).
//
// Claim: the naive recursive algorithm runs in time O(n^k) where n is the
// structure size and k the quantifier depth — polynomial in the data for a
// fixed query, exponential in the query. ClaimsTest asserts that shape on
// the exact work counters; this suite times the same two axes (a domain
// sweep at fixed rank, a rank sweep at fixed domain) for both evaluators
// (interpreting ModelChecker and the compiled slot-based evaluator).
//
// `--json` skips the google-benchmark harness and emits one
// {"bench":...,"n":...,"wall_ms":...,"node_visits":...} line per run, for
// scripted before/after comparisons.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "eval/compiled_eval.h"
#include "eval/model_check.h"
#include "logic/parser.h"
#include "structures/generators.h"

namespace {

using fmtk::CompiledEvaluator;
using fmtk::Formula;
using fmtk::MakeDirectedCycle;
using fmtk::ModelChecker;
using fmtk::ParseFormula;
using fmtk::Structure;

// ∃x1 ... ∃xk E(x1, x1): the body is false on loop-free graphs, so the
// checker explores all n + n^2 + ... + n^k instantiations — the clean
// O(n^k) worst case without early-termination noise.
Formula FullExplorationSentence(std::size_t rank) {
  std::string text;
  for (std::size_t i = 1; i <= rank; ++i) {
    text += "exists x" + std::to_string(i) + ". ";
  }
  text += "E(x1,x1)";
  return *ParseFormula(text);
}

void BM_ModelCheckDataSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure g = MakeDirectedCycle(n);
  Formula f = FullExplorationSentence(3);
  for (auto _ : state) {
    ModelChecker checker(g);
    benchmark::DoNotOptimize(checker.Check(f));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_ModelCheckDataSweep)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity();

void BM_ModelCheckRankSweep(benchmark::State& state) {
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Structure g = MakeDirectedCycle(12);
  Formula f = FullExplorationSentence(rank);
  for (auto _ : state) {
    ModelChecker checker(g);
    benchmark::DoNotOptimize(checker.Check(f));
  }
}
BENCHMARK(BM_ModelCheckRankSweep)->DenseRange(1, 6);

// Same sweeps through the compiled slot-based evaluator. Compilation sits
// outside the timed loop when a formula is reused (the common case in the
// mu / order-invariance / locality pipelines), so bind+evaluate is timed.
void BM_CompiledCheckDataSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure g = MakeDirectedCycle(n);
  Formula f = FullExplorationSentence(3);
  fmtk::Result<fmtk::CompiledFormula> plan =
      fmtk::CompiledFormula::Compile(f, g.signature());
  for (auto _ : state) {
    fmtk::Result<CompiledEvaluator> eval = CompiledEvaluator::Bind(*plan, g);
    benchmark::DoNotOptimize(eval->Evaluate());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_CompiledCheckDataSweep)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity();

void BM_CompiledCheckRankSweep(benchmark::State& state) {
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Structure g = MakeDirectedCycle(12);
  Formula f = FullExplorationSentence(rank);
  fmtk::Result<fmtk::CompiledFormula> plan =
      fmtk::CompiledFormula::Compile(f, g.signature());
  for (auto _ : state) {
    fmtk::Result<CompiledEvaluator> eval = CompiledEvaluator::Bind(*plan, g);
    benchmark::DoNotOptimize(eval->Evaluate());
  }
}
BENCHMARK(BM_CompiledCheckRankSweep)->DenseRange(1, 6);

void BM_CompiledParallelDataSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Structure g = MakeDirectedCycle(n);
  Formula f = FullExplorationSentence(3);
  fmtk::ParallelPolicy policy;
  policy.enabled = true;
  fmtk::Result<fmtk::CompiledFormula> plan =
      fmtk::CompiledFormula::Compile(f, g.signature());
  for (auto _ : state) {
    fmtk::Result<CompiledEvaluator> eval =
        CompiledEvaluator::Bind(*plan, g, policy);
    benchmark::DoNotOptimize(eval->Evaluate());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_CompiledParallelDataSweep)->RangeMultiplier(2)->Range(32, 128)
    ->Complexity();

// --json: one shot per configuration, wall-clock timed by hand, machine
// readable. node_visits comes from each evaluator's own EvalStats.
void EmitJsonLine(const std::string& bench, std::size_t n, double wall_ms,
                  std::size_t node_visits) {
  std::printf(
      "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,\"node_visits\":%zu}\n",
      bench.c_str(), n, wall_ms, node_visits);
}

template <typename Fn>
double TimedMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void RunJsonSuite() {
  // Fixed rank-3 query, growing data; largest size is the headline number.
  for (std::size_t n : {8, 16, 32, 64, 128, 192, 256}) {
    Structure g = MakeDirectedCycle(n);
    Formula f = FullExplorationSentence(3);
    ModelChecker checker(g);
    const double interp_ms = TimedMs([&] { (void)checker.Check(f); });
    EmitJsonLine("interpreter_rank3", n, interp_ms,
                 checker.stats().node_visits);
    fmtk::Result<CompiledEvaluator> eval = CompiledEvaluator::Compile(g, f);
    const double compiled_ms = TimedMs([&] { (void)eval->Evaluate(); });
    EmitJsonLine("compiled_rank3", n, compiled_ms, eval->stats().node_visits);
  }
  // Fixed data (n = 12), growing rank.
  for (std::size_t rank = 1; rank <= 6; ++rank) {
    Structure g = MakeDirectedCycle(12);
    Formula f = FullExplorationSentence(rank);
    ModelChecker checker(g);
    const double interp_ms = TimedMs([&] { (void)checker.Check(f); });
    EmitJsonLine("interpreter_rank" + std::to_string(rank), 12, interp_ms,
                 checker.stats().node_visits);
    fmtk::Result<CompiledEvaluator> eval = CompiledEvaluator::Compile(g, f);
    const double compiled_ms = TimedMs([&] { (void)eval->Evaluate(); });
    EmitJsonLine("compiled_rank" + std::to_string(rank), 12, compiled_ms,
                 eval->stats().node_visits);
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
