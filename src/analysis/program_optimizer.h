#ifndef FMTK_ANALYSIS_PROGRAM_OPTIMIZER_H_
#define FMTK_ANALYSIS_PROGRAM_OPTIMIZER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "analysis/diagnostics.h"
#include "base/result.h"
#include "datalog/program.h"
#include "logic/formula.h"
#include "structures/signature.h"

namespace fmtk {

/// One rewrite the optimizer applied, with its provenance: which pass
/// fired, the FMTK code it reports under (empty for the magic-set
/// transformation, which is a specialization rather than a diagnosis), and
/// a human-readable description of what changed.
struct DatalogRewrite {
  std::string pass;    // "dead-rule", "duplicate-rule", "subsumed-rule",
                       // "bounded-recursion", "magic-sets"
  std::string code;    // "FMTK106" etc; empty for magic-sets entries
  std::string detail;  // "dropped 'q(x) :- E(x,x).'"

  std::string ToString() const {
    return code.empty() ? pass + ": " + detail
                        : pass + "[" + code + "]: " + detail;
  }
};

/// Per-predicate boundedness verdict after rewriting: a predicate whose
/// component is non-recursive in the optimized program is bounded (its
/// fixpoint closes in one stratum-local round) and hence FO-expressible —
/// the McColm/Gurevich-Immerman-Shelah hinge between LFP and FO.
struct BoundednessVerdict {
  std::string predicate;
  bool bounded = false;
  std::string reason;  // "non-recursive after rewrites", "linear recursion"

  std::string ToString() const {
    return predicate + ": " + (bounded ? "bounded" : "unbounded") + " (" +
           reason + ")";
  }
};

struct DatalogOptimizerOptions {
  /// When set, the input program is analyzed against this vocabulary and
  /// the FO lowering is validated against it.
  const Signature* signature = nullptr;
  /// Liveness roots: the query's output predicates. Dead-rule elimination
  /// and the magic-set transformation are relative to this set — it is the
  /// same root set `fmtk_lint --output` feeds FMTK106, so lint and
  /// optimizer never disagree about liveness. Empty = every IDB predicate
  /// is an output: nothing is dead and magic sets do not apply.
  std::vector<std::string> outputs;
};

/// The optimizer's result: the rewritten program, its analysis (strata,
/// recursion classification — the engine schedule), per-rewrite
/// provenance, boundedness verdicts, and — when every predicate is bounded
/// and the program is constant-free — an equivalent FO query per output
/// predicate for engine routing.
struct OptimizedDatalogProgram {
  DatalogProgram program;
  /// Analysis of `program` with the optimizer's outputs as roots.
  DatalogAnalysis analysis;

  std::vector<DatalogRewrite> rewrites;
  std::vector<BoundednessVerdict> boundedness;
  /// FMTK112/113/114 (and FMTK106 for dead rules) reported at the dropped
  /// rules' spans — the diagnostic face of `rewrites`.
  DiagnosticSink provenance;

  /// The magic-set transformation fired: `program` computes the output
  /// predicates (only) under demand from the query's bound arguments.
  bool magic_applied = false;

  /// Every requested predicate is bounded and was lowered to FO.
  bool fo_expressible = false;
  /// Per requested output predicate (all IDB predicates when `outputs` is
  /// empty): an FO formula with free variables v0..v{k-1} equivalent to
  /// the predicate under domain-relative semantics.
  std::map<std::string, Formula> fo_queries;

  /// One line per rewrite, in application order.
  std::vector<std::string> RewriteSummary() const;
  /// One line per verdict, sorted by predicate.
  std::vector<std::string> BoundednessSummary() const;
};

/// Runs the safe static rewrites over `program`: duplicate-rule removal
/// (FMTK112), theta-subsumption (FMTK113), bounded-recursion detection
/// (FMTK114, self-head rules), dead-rule elimination relative to the
/// outputs (FMTK106), boundedness classification with FO lowering, and the
/// magic-set / demand transformation for queries whose rules call
/// recursive predicates with bound (constant) arguments. Fails with the
/// analyzer's status when the input program has errors (including
/// unstratifiable negation, FMTK110). Every rewrite preserves the
/// relations of the output predicates on every EDB.
Result<OptimizedDatalogProgram> OptimizeDatalogProgram(
    const DatalogProgram& program, const DatalogOptimizerOptions& options = {});

}  // namespace fmtk

#endif  // FMTK_ANALYSIS_PROGRAM_OPTIMIZER_H_
