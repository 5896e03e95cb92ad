// The three workloads. Each fills a Report: end-to-end metrics on an
// untraced run, per-layer metrics and the spans on a traced run (--trace 1).
#ifndef FMTK_PERFBENCH_WORKLOADS_H_
#define FMTK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/algorithmic/bounded_degree.h"
#include "harness.h"
#include "planner/planner.h"
#include "structures/structure.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void RunServeMix(const RunConfig& config, Report& report);
void RunEngineMix(const RunConfig& config, Report& report);
void RunToolbox(const RunConfig& config, Report& report);

/// Hash of the first `count` operations a workload generates for `seed`
/// (the determinism self-test compares two generations).
std::uint64_t ServeMixSequenceHash(std::uint64_t seed, std::size_t count);
std::uint64_t EngineMixSequenceHash(std::uint64_t seed, std::size_t count);
std::uint64_t ToolboxSequenceHash(std::uint64_t seed, std::size_t count);

/// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 9;

/// The reference answer of an FO request on a structure, computed on a
/// different route than the planner picked: the naive interpreter when
/// n <= 64, else a forced engine other than `auto_engine`. Sentences give
/// "true"/"false", output queries their row count.
std::string ReferenceFoAnswer(const fmtk::Structure& structure,
                              const std::string& text,
                              const std::vector<std::string>& outputs,
                              fmtk::EngineKind auto_engine);

/// The traced run's record: spans named after the layer metrics
/// ("planner.plan" feeds planner.plan_ms) plus exact work counters.
struct Layers {
  Tracer tracer;
  std::map<std::string, double> counters;
  /// Bounded-degree evaluators by sentence text, reused across calls the
  /// way the plan cache reuses them, so their verdict cache can hit.
  std::map<std::string, std::unique_ptr<fmtk::BoundedDegreeEvaluator>> bd;
  /// Canonical forms the cold decomposition has compiled so far.
  std::set<std::string> cold_canonical;

  void Count(const std::string& name, double value) { counters[name] += value; }
  double Counter(const std::string& name) const;
};

/// Writes every per-layer metric into `report`: the self time of each
/// layer's spans per call in ms, counters as counts, ratios from their
/// bases. Layers a workload does not exercise report 0.
void ReportLayers(const Layers& layers, Report& report);

/// Compares the exact counters (every counter that is not a time, the
/// planner.route.<engine> histogram included) of two traced passes over
/// the same operations, and notes each one that differs as DRIFT.
void CheckDrift(const Layers& first, const Layers& second, Report& report);

/// Times of the stages a request's admission and execution pass through.
struct Stages {
  double admission_ms = 0.0;  // PlanAuto, or Datalog parse + analyze
  double evaluate_ms = 0.0;   // EvaluateAuto / ...QueryAuto / ...DatalogAuto
};

/// FO side decomposition of one request, in process, for the traced runs:
/// parse, analyze and canonicalize the text, plan and evaluate through the
/// planner, then the chosen engine's direct call on the canonical formula,
/// the way the planner runs it, with its counters. With
/// `guarded_forall_exists` the compiled engine also runs the sentence, for
/// eval.instantiations_per_element.
Stages DecomposeFo(const fmtk::Structure& structure, const std::string& text,
                   const std::vector<std::string>& outputs,
                   const fmtk::PlannerOptions& planner,
                   bool guarded_forall_exists, std::uint64_t op,
                   Layers& layers);

/// The fresh-cache half of the FO decomposition: parse, analyze and
/// canonicalize, as a text miss pays them, then compile if the canonical
/// form is new to this decomposition (a canonical miss). Returns whether
/// it compiled.
bool DecomposeFoCold(const fmtk::Structure& structure, const std::string& text,
                     std::uint64_t op, Layers& layers);

/// Datalog side decomposition: parse and analyze (the server's admission),
/// evaluate through the planner, then optimize, create and run the
/// compiled engine on the optimized program.
Stages DecomposeDatalog(const fmtk::Structure& structure,
                        const std::string& text,
                        const std::vector<std::string>& outputs,
                        const fmtk::PlannerOptions& planner, std::uint64_t op,
                        Layers& layers);

/// Round-trips `s` through FMTKBIN1, the way a structure arrives from disk
/// or over PUT, and computes the fresh copy's Stats(); timed as
/// structures.load and structures.stats when `layers` is set.
fmtk::Structure LoadThroughBinary(const fmtk::Structure& s, Layers* layers);

}  // namespace perfbench

#endif  // FMTK_PERFBENCH_WORKLOADS_H_
