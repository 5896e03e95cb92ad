// Per-layer decomposition shared by the traced runs: each function calls
// one module's public entry points on the inputs of a request and records
// a span per call, named after the per-layer metric it feeds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "analysis/datalog_analyzer.h"
#include "analysis/fo_analyzer.h"
#include "analysis/program_optimizer.h"
#include "datalog/compiled_engine.h"
#include "datalog/program.h"
#include "eval/compiled_eval.h"
#include "eval/model_check.h"
#include "eval/query_eval.h"
#include "logic/parser.h"
#include "planner/canonical.h"
#include "planner/fo_to_datalog.h"
#include "structures/bulk_load.h"
#include "workloads.h"

namespace perfbench {

using fmtk::EngineKind;
using fmtk::Structure;

namespace {

std::string AnswerOf(const fmtk::Result<bool>& verdict) {
  if (!verdict.ok()) return "error: " + verdict.status().ToString();
  return *verdict ? "true" : "false";
}

std::string AnswerOf(const fmtk::Result<fmtk::Relation>& rows) {
  if (!rows.ok()) return "error: " + rows.status().ToString();
  return std::to_string(rows->size());
}

void AddEvalStats(const fmtk::EvalStats& s, Layers& layers) {
  layers.Count("eval.node_visits", static_cast<double>(s.node_visits));
  layers.Count("eval.quantifier_instantiations",
               static_cast<double>(s.quantifier_instantiations));
  layers.Count("eval.atom_lookups", static_cast<double>(s.atom_lookups));
  layers.Count("eval.short_circuits", static_cast<double>(s.short_circuits));
  layers.Count("eval.index_hits", static_cast<double>(s.index_hits));
}

void AddDatalogStats(const fmtk::DatalogStats& s, Layers& layers) {
  layers.Count("datalog.iterations", static_cast<double>(s.iterations));
  layers.Count("datalog.tuples_derived", static_cast<double>(s.tuples_derived));
  layers.Count("datalog.tuples_new", static_cast<double>(s.tuples_new));
  layers.Count("datalog.index_probes", static_cast<double>(s.index_probes));
  layers.Count("datalog.tuples_scanned", static_cast<double>(s.tuples_scanned));
  layers.Count("datalog.atom_visits", static_cast<double>(s.atom_visits));
}

template <typename Fn>
auto Timed(Tracer* tracer, const char* name, std::uint64_t op, double* ms,
           Fn fn) {
  const auto start = Clock::now();
  ScopedSpan span(tracer, name, op);
  auto result = fn();
  *ms = MsSince(start);
  return result;
}

// The compiled engine's output-query route as the planner runs it
// (EnumerateWithPlan): EvaluateRow over domain^m in odometer order, each
// row's free variables read from the output tuple.
fmtk::Status EnumerateRows(fmtk::CompiledEvaluator& evaluator,
                           const std::vector<std::string>& outputs, std::size_t n) {
  const std::vector<std::string>& free_vars = evaluator.free_variables();
  std::vector<std::size_t> source(free_vars.size(), 0);
  for (std::size_t i = 0; i < free_vars.size(); ++i) {
    const auto it = std::find(outputs.begin(), outputs.end(), free_vars[i]);
    if (it == outputs.end()) {
      return fmtk::Status::InvalidArgument("uncovered free variable " + free_vars[i]);
    }
    source[i] = static_cast<std::size_t>(it - outputs.begin());
  }
  if (outputs.empty()) return evaluator.EvaluateRow({}).status();
  std::vector<fmtk::Element> tuple(outputs.size(), 0);
  std::vector<fmtk::Element> row(free_vars.size(), 0);
  for (bool done = n == 0; !done;) {
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = tuple[source[i]];
    auto holds = evaluator.EvaluateRow(row);
    if (!holds.ok()) return holds.status();
    done = true;
    for (std::size_t pos = tuple.size(); pos > 0 && done; --pos) {
      if (++tuple[pos - 1] < n) {
        done = false;
      } else {
        tuple[pos - 1] = 0;
      }
    }
  }
  return fmtk::Status::OK();
}

// Runs `f` on the compiled engine (compile, bind, then Evaluate for a
// sentence or EnumerateRows for an output query) under the given span
// names. Returns the evaluator's counters; *warm_ms gets the bind and
// execute time, the part a cached plan still pays.
std::optional<fmtk::EvalStats> RunCompiled(
    const Structure& s, const fmtk::Formula& f, const std::vector<std::string>& outputs,
    fmtk::ParallelPolicy policy, const char* compile_span, const char* bind_span,
    const char* exec_span, std::uint64_t op, Layers& layers, double* warm_ms) {
  Tracer* t = &layers.tracer;
  double ms = 0.0;
  auto plan = Timed(t, compile_span, op, &ms,
                    [&] { return fmtk::CompiledFormula::Compile(f, s.signature()); });
  if (!plan.ok()) return std::nullopt;
  double bind_ms = 0.0;
  auto evaluator = Timed(t, bind_span, op, &bind_ms,
                         [&] { return fmtk::CompiledEvaluator::Bind(*plan, s, policy); });
  if (!evaluator.ok()) return std::nullopt;
  double exec_ms = 0.0;
  (void)Timed(t, exec_span, op, &exec_ms, [&] {
    return outputs.empty() ? evaluator->Evaluate().status()
                           : EnumerateRows(*evaluator, outputs, s.domain_size());
  });
  *warm_ms = bind_ms + exec_ms;
  return evaluator->stats();
}

// The chosen engine's direct call on the canonical formula (what the plan
// cache holds), bypassing the planner. Returns the time of the part the
// planner's warm path pays too: bind and execute for the compiled engines,
// evaluation alone for the Datalog route (its lowering and engine are
// memoized per structure).
double RunEngineDirect(const Structure& s, const fmtk::Formula& f,
                       const std::vector<std::string>& outputs, EngineKind engine,
                       const fmtk::PlannerOptions& planner, std::uint64_t op,
                       Layers& layers) {
  Tracer* t = &layers.tracer;
  double warm_ms = 0.0;
  switch (engine) {
    case EngineKind::kCompiled:
      if (auto stats = RunCompiled(s, f, outputs, {}, "eval.compile", "eval.bind",
                                   "eval.exec", op, layers, &warm_ms)) {
        AddEvalStats(*stats, layers);
      }
      break;
    case EngineKind::kParallel: {
      // Sentences only. The fan-out's early exit makes its counters depend
      // on thread timing, and the counters must repeat exactly, so this
      // route is timed but adds no eval.* counts.
      fmtk::ParallelPolicy policy;
      policy.enabled = true;
      policy.num_threads = planner.threads;
      (void)RunCompiled(s, f, outputs, policy, "eval.compile", "eval.bind", "eval.exec",
                        op, layers, &warm_ms);
      break;
    }
    case EngineKind::kRelational:
      (void)Timed(t, "query_eval.relational", op, &warm_ms,
                  [&] { return fmtk::EvaluateQuery(s, f, outputs); });
      break;
    case EngineKind::kDatalog: {
      // The lowered program must outlive the engine bound to it.
      double ms = 0.0;
      auto lowered = Timed(t, "planner.lower", op, &ms,
                           [&] { return fmtk::TranslateToDatalog(f, s.signature()); });
      if (!lowered.ok()) break;
      auto engine_or = Timed(t, "datalog.create", op, &ms, [&] {
        return fmtk::CompiledDatalogEngine::Create(lowered->program, s);
      });
      if (!engine_or.ok()) break;
      fmtk::DatalogStats stats;
      (void)Timed(t, "datalog.exec", op, &warm_ms,
                  [&] { return engine_or->Evaluate(&stats); });
      AddDatalogStats(stats, layers);
      break;
    }
    case EngineKind::kBoundedDegree: {
      auto& evaluator = layers.bd[f.ToString()];
      if (evaluator == nullptr) {
        auto created = fmtk::BoundedDegreeEvaluator::Create(f);
        if (!created.ok()) break;
        evaluator =
            std::make_unique<fmtk::BoundedDegreeEvaluator>(std::move(*created));
      }
      const double hits = static_cast<double>(evaluator->cache_hits());
      const double misses = static_cast<double>(evaluator->cache_misses());
      (void)Timed(t, "bounded_degree.eval", op, &warm_ms,
                  [&] { return evaluator->Evaluate(s); });
      layers.Count("bounded_degree.hits",
                   static_cast<double>(evaluator->cache_hits()) - hits);
      layers.Count("bounded_degree.misses",
                   static_cast<double>(evaluator->cache_misses()) - misses);
      break;
    }
    case EngineKind::kNaive:
      // Not a declared layer metric; timed so planner.evaluate_ms excludes it.
      if (outputs.empty()) {
        (void)Timed(t, "eval.naive", op, &warm_ms,
                    [&] { return fmtk::ModelChecker(s).Check(f); });
      } else {
        (void)Timed(t, "eval.naive", op, &warm_ms,
                    [&] { return fmtk::EvaluateQueryNaive(s, f, outputs); });
      }
      break;
  }
  return warm_ms;
}

const char* const kTimedLayers[] = {
    "server.handle",   "server.http_parse",   "server.json_parse",
    "planner.plan",    "planner.canonical",   "logic.parse",
    "datalog.parse",   "analysis.fo",         "analysis.program",
    "analysis.optimize", "eval.compile",      "eval.bind",
    "eval.exec",       "query_eval.relational", "datalog.create",
    "datalog.exec",    "ivm.insert",          "ivm.delete",
    "structures.load", "structures.stats",    "bounded_degree.eval",
    "locality.call",   "games.solve"};

// Counters reported as they were summed, plus the values a workload sets
// directly (the server's).
const char* const kCounts[] = {
    "server.requests_shed",       "server.admission_rejected",
    "server.heavy_lane_entries",  "plan_cache.misses",
    "plan_cache.evictions",       "plan_cache.entries",
    "eval.node_visits",           "eval.quantifier_instantiations",
    "eval.atom_lookups",          "eval.short_circuits",
    "eval.index_hits",            "datalog.iterations",
    "datalog.tuples_derived",     "datalog.tuples_new",
    "datalog.index_probes",       "datalog.tuples_scanned",
    "datalog.atom_visits",        "ivm.rounds",
    "ivm.idb_inserted",           "ivm.idb_deleted",
    "ivm.overestimate",           "ivm.rederived",
    "locality.canon_codes",       "locality.iso_tests",
    "locality.exact_hits",        "locality.balls_extracted",
    "locality.bfs_node_visits",   "locality.frontier_reuses",
    "games.nodes_explored",       "games.table_hits",
    "games.moves_pruned"};

const char* const kEngines[] = {"naive",      "compiled", "parallel",
                                "relational", "datalog",  "bounded-degree"};

}  // namespace

std::string ReferenceFoAnswer(const Structure& structure,
                              const std::string& text,
                              const std::vector<std::string>& outputs,
                              EngineKind auto_engine) {
  fmtk::PlannerOptions options;
  options.use_cache = false;
  options.threads = 2;
  EngineKind reference = EngineKind::kNaive;
  if (structure.domain_size() > 64) {
    if (outputs.empty()) {
      // The compiled engine is the check unless it is what the planner
      // picked (then the naive interpreter) or the sentence went to the
      // Datalog lowering (existential chains, which the compiled engine
      // scans in n^rank; the relational engine joins them).
      reference = auto_engine == EngineKind::kDatalog ? EngineKind::kRelational
                  : auto_engine == EngineKind::kCompiled ? EngineKind::kNaive
                                                         : EngineKind::kCompiled;
    } else {
      reference = auto_engine == EngineKind::kRelational ? EngineKind::kDatalog
                                                         : EngineKind::kRelational;
    }
  }
  options.force_engine = reference;
  if (outputs.empty()) return AnswerOf(fmtk::EvaluateAuto(structure, text, options));
  return AnswerOf(fmtk::EvaluateQueryAuto(structure, text, outputs, options));
}

double Layers::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

Stages DecomposeFo(const Structure& s, const std::string& text,
                   const std::vector<std::string>& outputs,
                   const fmtk::PlannerOptions& planner,
                   bool guarded_forall_exists, std::uint64_t op,
                   Layers& layers) {
  Tracer* t = &layers.tracer;
  Stages stages;
  double ms = 0.0;
  auto f = Timed(t, "logic.parse", op, &ms,
                 [&] { return fmtk::ParseFormula(text, &s.signature()); });
  if (!f.ok()) return stages;
  Timed(t, "analysis.fo", op, &ms, [&] {
    fmtk::FoAnalyzerOptions options;
    options.signature = &s.signature();
    return fmtk::AnalyzeFormula(*f, options);
  });
  const fmtk::Formula canonical = Timed(t, "planner.canonical", op, &ms,
                                        [&] { return fmtk::CanonicalizeFormula(*f); });
  Timed(t, "planner.plan", op, &stages.admission_ms, [&] {
    return fmtk::PlanAuto(s, text, !outputs.empty(), outputs.size(), planner);
  });
  fmtk::PlanExplanation explain;
  if (outputs.empty()) {
    Timed(t, "planner.evaluate", op, &stages.evaluate_ms,
          [&] { return fmtk::EvaluateAuto(s, text, planner, &explain); });
  } else {
    Timed(t, "planner.evaluate", op, &stages.evaluate_ms, [&] {
      return fmtk::EvaluateQueryAuto(s, text, outputs, planner, &explain);
    });
  }
  layers.Count(std::string("planner.route.") + fmtk::EngineKindName(explain.chosen),
               1);
  const double engine_ms =
      RunEngineDirect(s, canonical, outputs, explain.chosen, planner, op, layers);
  layers.Count("planner.evaluate_self_ms",
               std::max(0.0, stages.evaluate_ms - engine_ms));
  layers.Count("planner.evaluate_self_calls", 1);
  if (guarded_forall_exists && outputs.empty()) {
    // ROADMAP 2a's measure: compiled quantifier instantiations per domain
    // element on the guarded forall-exists class, whatever the route.
    if (auto stats = RunCompiled(s, canonical, {}, {}, "eval.fe_compile",
                                 "eval.fe_bind", "eval.fe_exec", op, layers, &ms)) {
      layers.Count("eval.fe_instantiations",
                   static_cast<double>(stats->quantifier_instantiations));
      layers.Count("eval.fe_elements", static_cast<double>(s.domain_size()));
    }
  }
  return stages;
}

bool DecomposeFoCold(const Structure& s, const std::string& text,
                     std::uint64_t op, Layers& layers) {
  Tracer* t = &layers.tracer;
  double ms = 0.0;
  auto f = Timed(t, "logic.parse", op, &ms,
                 [&] { return fmtk::ParseFormula(text, &s.signature()); });
  if (!f.ok()) return false;
  Timed(t, "analysis.fo", op, &ms, [&] {
    fmtk::FoAnalyzerOptions options;
    options.signature = &s.signature();
    return fmtk::AnalyzeFormula(*f, options);
  });
  const fmtk::Formula canonical = Timed(t, "planner.canonical", op, &ms,
                                        [&] { return fmtk::CanonicalizeFormula(*f); });
  // A new text whose canonical form the cache already holds reuses that
  // plan; only a new canonical form is compiled.
  if (!layers.cold_canonical.insert(canonical.ToString()).second) return false;
  Timed(t, "eval.compile", op, &ms, [&] {
    return fmtk::CompiledFormula::Compile(canonical, s.signature());
  });
  return true;
}

Stages DecomposeDatalog(const Structure& s, const std::string& text,
                        const std::vector<std::string>& outputs,
                        const fmtk::PlannerOptions& planner, std::uint64_t op,
                        Layers& layers) {
  Tracer* t = &layers.tracer;
  Stages stages;
  double parse_ms = 0.0;
  double analyze_ms = 0.0;
  double ms = 0.0;
  auto program = Timed(t, "datalog.parse", op, &parse_ms, [&] {
    return fmtk::ParseDatalogProgram(text, /*validate=*/false);
  });
  if (!program.ok()) return stages;
  Timed(t, "analysis.program", op, &analyze_ms, [&] {
    fmtk::DatalogAnalyzerOptions options;
    options.signature = &s.signature();
    options.outputs = outputs;
    return fmtk::AnalyzeProgram(*program, options);
  });
  stages.admission_ms = parse_ms + analyze_ms;
  fmtk::PlannerOptions options = planner;
  options.datalog_outputs = outputs;
  Timed(t, "planner.evaluate", op, &stages.evaluate_ms, [&] {
    return fmtk::EvaluateDatalogAuto(s, text, options);
  });
  auto optimized = Timed(t, "analysis.optimize", op, &ms, [&] {
    fmtk::DatalogOptimizerOptions optimizer;
    optimizer.signature = &s.signature();
    optimizer.outputs = outputs;
    return fmtk::OptimizeDatalogProgram(*program, optimizer);
  });
  if (!optimized.ok()) return stages;
  auto engine = Timed(t, "datalog.create", op, &ms, [&] {
    return fmtk::CompiledDatalogEngine::Create(optimized->program, s);
  });
  if (!engine.ok()) return stages;
  fmtk::DatalogStats stats;
  Timed(t, "datalog.exec", op, &ms, [&] { return engine->Evaluate(&stats); });
  AddDatalogStats(stats, layers);
  return stages;
}

Structure LoadThroughBinary(const Structure& s, Layers* layers) {
  const std::string bytes = fmtk::SerializeStructureBinary(s);
  Tracer* t = layers != nullptr ? &layers->tracer : nullptr;
  auto loaded = [&] {
    ScopedSpan span(t, "structures.load", 0);
    return fmtk::ParseStructureBinary(bytes);
  }();
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: FMTKBIN1 round trip failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  if (layers != nullptr) {
    layers->Count("structures.loaded_tuples",
                  static_cast<double>(loaded->TupleCount()));
  }
  {
    ScopedSpan span(t, "structures.stats", 0);
    (void)loaded->Stats();
  }
  return std::move(*loaded);
}

void CheckDrift(const Layers& first, const Layers& second, Report& report) {
  std::set<std::string> names;
  for (const Layers* layers : {&first, &second}) {
    for (const auto& [name, value] : layers->counters) {
      if (name.size() < 3 || name.compare(name.size() - 3, 3, "_ms") != 0) {
        names.insert(name);
      }
    }
  }
  std::size_t drifted = 0;
  for (const std::string& name : names) {
    const double a = first.Counter(name);
    const double b = second.Counter(name);
    if (a != b) {
      ++drifted;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "DRIFT %s: %.17g in the first traced pass, %.17g in the second",
                    name.c_str(), a, b);
      report.Note(line);
    }
  }
  report.Note("determinism: " + std::to_string(names.size() - drifted) + " of " +
              std::to_string(names.size()) +
              " exact counters and routes repeat across two traced passes");
}

void ReportLayers(const Layers& layers, Report& report) {
  const auto self = layers.tracer.SelfByName();
  const auto calls = layers.tracer.CountByName();
  for (const char* name : kTimedLayers) {
    const auto it = calls.find(name);
    const std::size_t n = it == calls.end() ? 0 : it->second;
    report.Set(std::string(name) + "_ms",
               n == 0 ? 0.0 : self.at(name) / static_cast<double>(n), "ms", n);
  }
  const auto ratio = [&](const char* num, const char* den) {
    const double d = layers.Counter(den);
    return d == 0.0 ? 0.0 : layers.Counter(num) / d;
  };
  report.Set("planner.evaluate_ms",
             ratio("planner.evaluate_self_ms", "planner.evaluate_self_calls"),
             "ms",
             static_cast<std::size_t>(layers.Counter("planner.evaluate_self_calls")));
  for (const char* name : kCounts) report.Set(name, layers.Counter(name), "count");
  for (const char* engine : kEngines) {
    const std::string name = std::string("planner.route.") + engine;
    report.Set(name, layers.Counter(name), "count");
  }
  for (const char* name : {"server.http_ms", "server.unattributed_ms"}) {
    report.Set(name, layers.Counter(name), "ms");
  }
  report.Set("server.bytes_out_per_req", layers.Counter("server.bytes_out_per_req"),
             "bytes");
  report.Set("plan_cache.hit_ratio",
             ShareOf(layers.Counter("plan_cache.hits"),
                     layers.Counter("plan_cache.misses")),
             "ratio");
  report.Set("eval.instantiations_per_element",
             ratio("eval.fe_instantiations", "eval.fe_elements"), "ratio");
  report.Set("datalog.new_ratio", ratio("datalog.tuples_new", "datalog.tuples_derived"),
             "ratio");
  report.Set("ivm.rederive_ratio", ratio("ivm.rederived", "ivm.overestimate"),
             "ratio");
  const auto load = layers.tracer.TotalByName();
  const double load_s =
      load.count("structures.load") ? load.at("structures.load") / 1000.0 : 0.0;
  report.Set("structures.load_tuples_per_s",
             load_s == 0.0 ? 0.0 : layers.Counter("structures.loaded_tuples") / load_s,
             "1/s");
  report.Set("bounded_degree.hit_ratio",
             ShareOf(layers.Counter("bounded_degree.hits"),
                     layers.Counter("bounded_degree.misses")),
             "ratio");
  report.Set("locality.canon_hit_ratio",
             ratio("locality.canon_hits", "locality.canon_codes"), "ratio");
  report.Set("games.table_hit_ratio",
             ShareOf(layers.Counter("games.table_hits"),
                     layers.Counter("games.nodes_explored")),
             "ratio");
}

}  // namespace perfbench
