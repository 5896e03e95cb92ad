#ifndef FMTK_EVAL_QUERY_EVAL_H_
#define FMTK_EVAL_QUERY_EVAL_H_

#include <string>
#include <vector>

#include "analysis/fo_analyzer.h"
#include "base/result.h"
#include "logic/formula.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

class CompiledEvaluator;

/// Options of the analyzed (checked) query entry points.
struct QueryEvalOptions {
  /// Reject formulas the static analyzer does not certify safe-range
  /// (FMTK010/FMTK011 become errors): the active-domain discipline of the
  /// survey's Sec. 3. The default keeps the toolkit's domain-relative
  /// semantics, where non-safe-range formulas (negation complements, extra
  /// output variables) are perfectly meaningful.
  bool require_safe_range = false;
  /// When set, receives the full static analysis of the formula — including
  /// the warnings of accepted queries.
  FoAnalysis* analysis = nullptr;
};

/// ans(φ(x̄), A) — the survey's query semantics: all tuples d̄ over the
/// domain with A ⊨ φ[x̄/d̄]. Column i of the result corresponds to
/// output_variables[i]; the list must cover every free variable of φ
/// (listing extra variables is allowed — they range over the whole domain,
/// matching the definition of an n-ary query induced by a formula with
/// fewer free variables).
///
/// Bottom-up relational-algebra evaluation (select/join/union/complement/
/// project), the way a database engine would run the query.
///
/// The static analyzer (analysis/fo_analyzer.h) is the checked front door:
/// vocabulary errors (FMTK001-003) reject the query with the full
/// diagnostic list in the status message.
Result<Relation> EvaluateQuery(const Structure& structure, const Formula& f,
                               const std::vector<std::string>& output_variables);
Result<Relation> EvaluateQuery(const Structure& structure, const Formula& f,
                               const std::vector<std::string>& output_variables,
                               const QueryEvalOptions& options);

/// The same answer relation computed by brute force: enumerate all
/// |A|^m assignments and run the compiled model checker
/// (eval/compiled_eval.h; the formula is compiled once, each candidate is a
/// flat slot row). Used to cross-validate the relational evaluator and as
/// the O(n^k) baseline in benches.
Result<Relation> EvaluateQueryNaive(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables);

/// The domain^m enumeration behind EvaluateQueryNaive and the planner's
/// compiled route: every candidate tuple over {0..domain_size-1} for
/// `output_variables`, in odometer order (last column fastest), is checked
/// with `evaluator.EvaluateRow` and kept when it holds. The first
/// evaluation error is returned as is; an output list that misses one of
/// the evaluator's free variables is InvalidArgument.
Result<Relation> EnumerateAnswers(
    CompiledEvaluator& evaluator, std::size_t domain_size,
    const std::vector<std::string>& output_variables);

}  // namespace fmtk

#endif  // FMTK_EVAL_QUERY_EVAL_H_
