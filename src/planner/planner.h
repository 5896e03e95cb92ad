#ifndef FMTK_PLANNER_PLANNER_H_
#define FMTK_PLANNER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/parallel.h"
#include "base/result.h"
#include "datalog/evaluator.h"
#include "logic/formula.h"
#include "planner/plan_cache.h"
#include "structures/relation.h"
#include "structures/structure.h"
#include "structures/structure_stats.h"

namespace fmtk {

/// The evaluation strategies EvaluateAuto routes between.
enum class EngineKind {
  /// The reference interpreter (ModelChecker / EvaluateQueryNaive):
  /// dominated by kCompiled on every input, kept as a forceable oracle.
  kNaive,
  /// Compiled slot evaluation, serial (eval/compiled_eval.h). For queries:
  /// domain^m enumeration over the cached compiled plan's row fast path.
  kCompiled,
  /// Compiled evaluation with the outer-quantifier parallel fan-out.
  kParallel,
  /// Bottom-up relational algebra (eval/query_eval.h EvaluateQuery).
  kRelational,
  /// Existential-positive lowering to nonrecursive Datalog on the compiled
  /// semi-naive engine (planner/fo_to_datalog.h).
  kDatalog,
  /// The Hanf bounded-degree histogram evaluator
  /// (core/algorithmic/bounded_degree.h) — survey Thm 3.10/3.11.
  kBoundedDegree,
};

/// "naive", "compiled", "parallel", "relational", "datalog",
/// "bounded-degree".
const char* EngineKindName(EngineKind kind);

/// Inverse of EngineKindName (also accepts "bounded_degree"); nullopt for
/// unknown names.
std::optional<EngineKind> ParseEngineKind(std::string_view name);

struct PlannerOptions {
  /// Run this engine instead of the cost model's choice (Unsupported when
  /// the engine cannot evaluate the query, e.g. Datalog outside the
  /// existential-positive fragment). The cost table is still computed, so
  /// the forced engine is priced by its own row.
  std::optional<EngineKind> force_engine;
  /// Use (and fill) the plan cache. Off = canonicalize + compile fresh.
  bool use_cache = true;
  /// Cache to use; nullptr = the process-global DefaultPlanCache().
  PlanCache* cache = nullptr;
  /// Threads the parallel route may assume; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Datalog route: output predicates — the liveness/demand roots dead-rule
  /// elimination and the magic-set transformation rewrite against (the same
  /// root set fmtk_lint --output feeds FMTK106). Empty = every IDB
  /// predicate is an output; the result map then covers all of them.
  /// Non-empty = the result map is restricted to these predicates.
  std::vector<std::string> datalog_outputs;
  /// Run the static program optimizer as a cached pre-pass and execute its
  /// rewritten program.
  bool optimize_datalog = true;
  /// When the optimizer proves the program bounded (non-recursive after
  /// rewrites) and lowers it to FO, route the outputs through
  /// EvaluateQueryAuto instead of the Datalog engine.
  bool datalog_fo_routing = true;
};

/// Cost-model verdict for one engine (for --explain).
struct EngineCost {
  EngineKind engine = EngineKind::kCompiled;
  bool eligible = false;
  /// Abstract work units (comparable across engines, not wall time).
  double cost = 0.0;
  /// Why ineligible / what the estimate assumed.
  std::string note;
};

/// Everything --explain prints: the chosen route, the analyzer measures and
/// structure statistics that drove it, the survey theorem justifying it,
/// and the per-engine cost table.
struct PlanExplanation {
  EngineKind chosen = EngineKind::kCompiled;
  /// The routing rule that fired, in words.
  std::string rule;
  /// The survey result backing the rule (e.g. "Thm 3.10/3.11: bounded
  /// degree => Hanf-local => linear time").
  std::string theorem;
  bool cache_hit = false;
  bool text_cache_hit = false;
  std::string canonical_text;
  std::uint64_t signature_fingerprint = 0;

  /// Analyzer measures (of the canonical formula).
  std::size_t quantifier_rank = 0;
  std::size_t variable_width = 0;
  std::size_t node_count = 0;
  std::size_t free_variable_count = 0;
  bool safe_range = false;
  bool existential_positive = false;

  /// The compiled route's fan-out estimate (eval/compiled_eval.h
  /// EstimateFanout): quantifier instantiations over the whole evaluation
  /// (every output row in query mode), and each quantifier's guard,
  /// outermost first, as "<variable>:<none|static|correlated>".
  double estimated_instantiations = 0.0;
  std::vector<std::string> guards;

  StructureStats structure;
  std::vector<EngineCost> costs;

  /// The cache entry `chosen` runs on. The handle keeps it alive, so the
  /// explanation stays executable after the cache evicts or clears it.
  std::shared_ptr<const CachedFormulaPlan> plan;

  /// The cost-table row of `chosen` (a forced engine's own row).
  double chosen_cost() const;

  /// Multi-line, human-readable --explain block.
  std::string ToString() const;
  /// One JSON object (machine-readable --explain / fmtk_lint --json).
  std::string ToJson() const;
};

/// Plan acquisition + routing WITHOUT execution: one plan-cache probe and
/// one routing decision. The query server's admission control prices a
/// request with this before committing a worker to it, then runs the
/// result through the planned overloads below, so a request is planned
/// once. `query_mode` prices EvaluateQueryAuto's domain^m enumeration with
/// `output_count` output columns; sentences pass query_mode = false.
/// chosen_cost() is the work estimate in compiled-slot-op units.
Result<PlanExplanation> PlanAuto(const Structure& structure,
                                 std::string_view text, bool query_mode,
                                 std::size_t output_count,
                                 const PlannerOptions& options = {});

/// Runs a planned sentence: `planned.chosen` on `planned.plan`, with no
/// cache probe and no routing. SignatureMismatch when `structure`'s
/// signature differs from the one the plan was built for. The plain front
/// doors below are PlanAuto's planning step followed by this.
Result<bool> EvaluateAuto(const Structure& structure,
                          const PlanExplanation& planned,
                          const PlannerOptions& options = {});

/// Runs a planned query (same checks as EvaluateQueryAuto's front doors on
/// `output_variables`).
Result<Relation> EvaluateQueryAuto(
    const Structure& structure, const PlanExplanation& planned,
    const std::vector<std::string>& output_variables);

/// Decides structure ⊨ sentence, routing to the estimated-fastest engine.
/// Verdicts are identical to every engine's direct invocation (the engines
/// are differential-tested against each other). `sentence` must have no
/// free variables.
Result<bool> EvaluateAuto(const Structure& structure, const Formula& sentence,
                          const PlannerOptions& options = {},
                          PlanExplanation* explain = nullptr);

/// Text front door: repeat query strings skip parse + analyze + compile
/// via the exact-text cache layer.
Result<bool> EvaluateAuto(const Structure& structure,
                          std::string_view sentence_text,
                          const PlannerOptions& options = {},
                          PlanExplanation* explain = nullptr);

/// ans(φ(x̄), A) with automatic engine choice. Matches EvaluateQuery's
/// semantics: column i is output_variables[i], the list must cover every
/// free variable (of the canonicalized query) and contain no duplicates;
/// extra variables range over the whole domain.
Result<Relation> EvaluateQueryAuto(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options = {}, PlanExplanation* explain = nullptr);

Result<Relation> EvaluateQueryAuto(
    const Structure& structure, std::string_view query_text,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options = {}, PlanExplanation* explain = nullptr);

/// A planned Datalog program: the cache entry it runs on, what the
/// optimizer pre-pass and the plan cache did with it (the --explain face),
/// and the measures the query server's admission control prices it by.
struct DatalogPlanExplanation {
  bool cache_hit = false;
  bool text_cache_hit = false;
  /// "datalog" (compiled semi-naive over the optimized rules), or "fo"
  /// (bounded program lowered to first-order queries and routed through
  /// EvaluateQueryAuto). Planning sets "datalog"; a run sets the route
  /// that actually ran.
  std::string route = "datalog";
  bool optimized = false;
  bool magic_applied = false;
  bool fo_expressible = false;
  /// One line per rewrite the optimizer applied, in application order.
  std::vector<std::string> rewrites;
  /// Stratum schedule of the executed program, bottom-up.
  std::vector<std::string> strata;
  /// Per-predicate boundedness verdicts.
  std::vector<std::string> boundedness;

  /// Admission measures of the program as written (canonicalization keeps
  /// its rules, their order and its predicate names): the rule count, the
  /// recursion shape of the analyzer's SCCs, and each IDB predicate's head
  /// arity — at most n^arity rows on an n-element structure.
  std::size_t rule_count = 0;
  bool recursive = false;
  bool nonlinear = false;
  std::map<std::string, std::size_t> head_arities;

  /// The cache entry the plan runs on. The handle keeps it alive, so the
  /// explanation stays executable after the cache evicts or clears it.
  std::shared_ptr<const CachedDatalogPlan> plan;

  /// Multi-line, human-readable --explain block.
  std::string ToString() const;
  /// One JSON object (server "analysis" field / fmtk_lint --json).
  std::string ToJson() const;
};

/// Datalog plan acquisition WITHOUT execution: one plan-cache probe. The
/// canonicalized program's analysis and the optimizer pre-pass (keyed by
/// options.datalog_outputs and options.optimize_datalog) are memoized on
/// the cache entry, so a repeat program skips parse/analyze/optimize. The
/// query server prices a request from the result, then runs it through the
/// planned overload below, so a request is planned once.
Result<DatalogPlanExplanation> PlanDatalogAuto(
    const Structure& structure, std::string_view program_text,
    const PlannerOptions& options = {});

/// Runs a planned program with no cache probe, and sets planned.route to
/// the route that ran (the FO lowering falls back to the fixpoint engine
/// when a query fails). SignatureMismatch when `edb`'s signature differs
/// from the one the plan was built for. The per-structure compiled engine
/// is memoized on the plan, so repeat (program, structure) pairs skip rule
/// binding. Results equal EvaluateDatalog(program, edb, kSemiNaive)
/// restricted to options.datalog_outputs when that set is non-empty (every
/// rewrite is output-preserving).
Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, DatalogPlanExplanation& planned,
    const PlannerOptions& options = {}, DatalogStats* stats = nullptr);

/// The plain front doors: the planning step followed by the planned run.
Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, const DatalogProgram& program,
    const PlannerOptions& options = {}, DatalogStats* stats = nullptr,
    DatalogPlanExplanation* explain = nullptr);

Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, std::string_view program_text,
    const PlannerOptions& options = {}, DatalogStats* stats = nullptr,
    DatalogPlanExplanation* explain = nullptr);

}  // namespace fmtk

#endif  // FMTK_PLANNER_PLANNER_H_
