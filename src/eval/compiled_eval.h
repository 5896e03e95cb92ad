#ifndef FMTK_EVAL_COMPILED_EVAL_H_
#define FMTK_EVAL_COMPILED_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/result.h"
#include "eval/model_check.h"
#include "logic/formula.h"
#include "structures/structure.h"

namespace fmtk {

namespace internal_eval {
struct Plan;
struct Binding;
// A correlated guard's candidate list and the bound value it was built for.
struct CandidateBuffer {
  std::vector<Element> values;
  Element key = 0;
  bool valid = false;
};
}  // namespace internal_eval

/// How a quantifier picks the elements it instantiates (DESIGN.md,
/// "Quantifier pruning").
enum class GuardKind {
  /// Every domain element.
  kNone,
  /// The distinct values of the guard columns, fixed at Bind.
  kStatic,
  /// The guard atom's postings at the value an enclosing quantifier bound,
  /// recomputed per instantiation: an index nested-loop join.
  kCorrelated,
};

/// "none", "static", "correlated".
const char* GuardKindName(GuardKind kind);

/// One quantifier's pruning guard, exactly as the evaluator uses it.
struct QuantifierGuard {
  /// The quantified variable.
  std::string variable;
  GuardKind kind = GuardKind::kNone;
  /// {signature relation index, column holding the variable}. kStatic: the
  /// candidates are the intersection of these columns' distinct values.
  /// kCorrelated: one entry, the driving guard atom.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> columns;
  /// kCorrelated: the driving atom's column that holds an enclosing
  /// quantifier's variable, and that variable's environment slot.
  std::uint32_t bound_column = 0;
  std::uint32_t bound_slot = 0;
};

/// The compiled route's price, from the same guard description the
/// evaluator runs: per quantifier, the fan-out is n when unguarded, the
/// smallest guard column's distinct-value count for a static guard, and
/// rows / distinct values of the bound column for a correlated one. A node
/// is visited once per combination of its enclosing quantifiers' fan-outs;
/// nothing is assumed to short-circuit.
struct FanoutEstimate {
  /// Per guards() entry.
  std::vector<double> fanout;
  double instantiations = 0.0;
  double node_visits = 0.0;
};

class CompiledFormula;

/// One evaluation of `plan` over `structure` (whose signature must be the
/// one `plan` was compiled against).
FanoutEstimate EstimateFanout(const CompiledFormula& plan,
                              const Structure& structure);

/// A Formula compiled against a Signature: variable names are resolved to
/// de Bruijn-style integer slots, relation and constant symbols to signature
/// indices, and each quantifier is annotated with a posting-list pruning
/// guard when one can be derived. Compilation validates the formula against
/// the signature exactly like ModelChecker::Check (unknown symbols and arity
/// mismatches are SignatureMismatch errors).
///
/// CompiledFormula is structure-independent: compile once, then Bind to any
/// structure over an equal signature (the zero-one-law enumerator binds one
/// plan to 2^k structures). Cheap to copy (shared representation).
class CompiledFormula {
 public:
  static Result<CompiledFormula> Compile(const Formula& f,
                                         const Signature& signature);

  /// Free variables of the source formula, sorted by name. Slot i of an
  /// evaluation row corresponds to free_variables()[i].
  const std::vector<std::string>& free_variables() const;

  /// Total environment slots (free variables + max quantifier nesting).
  std::size_t slot_count() const;

  /// One entry per quantifier, outermost first (pre-order).
  const std::vector<QuantifierGuard>& guards() const;

  /// The signature the plan was compiled against (Bind requires an equal
  /// one).
  const Signature& signature() const;

 private:
  friend class CompiledEvaluator;
  friend FanoutEstimate EstimateFanout(const CompiledFormula& plan,
                                       const Structure& structure);
  explicit CompiledFormula(std::shared_ptr<const internal_eval::Plan> plan)
      : plan_(std::move(plan)) {}

  std::shared_ptr<const internal_eval::Plan> plan_;
};

/// A CompiledFormula bound to one Structure: relation symbols become
/// Relation pointers, constants become resolved elements, and pruning
/// guards become pointers into the relation's per-column posting lists
/// (built once at bind time). Evaluation runs on a flat
/// std::vector<Element> environment — no maps, no string hashing; the
/// candidate lists of correlated guards live in reused per-node buffers.
///
/// The structure must outlive the evaluator and must not be mutated while
/// it is in use (Add invalidates the bound column indexes).
class CompiledEvaluator {
 public:
  /// Binds `plan` to `structure`. SignatureMismatch when the structure's
  /// signature differs from the one the plan was compiled against.
  static Result<CompiledEvaluator> Bind(CompiledFormula plan,
                                        const Structure& structure,
                                        ParallelPolicy policy = {});

  /// One-shot: compile `f` against structure's signature and bind.
  static Result<CompiledEvaluator> Compile(const Structure& structure,
                                           const Formula& f,
                                           ParallelPolicy policy = {});

  /// Decides structure ⊨ f under `assignment`. Verdicts and error
  /// classification are identical to ModelChecker::Check: free variables
  /// left unbound only fail (InvalidArgument) if actually evaluated, and
  /// uninterpreted constants likewise.
  Result<bool> Evaluate(const VarAssignment& assignment = {});

  /// Fast path for repeated evaluation: `row[i]` binds free_variables()[i].
  /// The row size must equal the number of free variables.
  Result<bool> EvaluateRow(const std::vector<Element>& row);

  const std::vector<std::string>& free_variables() const;

  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats{}; }

 private:
  CompiledEvaluator(CompiledFormula plan,
                    std::shared_ptr<const internal_eval::Binding> binding,
                    ParallelPolicy policy)
      : plan_(std::move(plan)),
        binding_(std::move(binding)),
        policy_(policy) {}

  Result<bool> Run(std::vector<Element> env,
                   std::vector<unsigned char> has_value);

  CompiledFormula plan_;
  std::shared_ptr<const internal_eval::Binding> binding_;
  ParallelPolicy policy_;
  EvalStats stats_;
  // Per-node candidate lists of correlated guards, kept across serial
  // evaluations: the binding is fixed, so a list stays valid for as long
  // as its node sees the same bound value.
  std::vector<internal_eval::CandidateBuffer> buffers_;
};


}  // namespace fmtk

#endif  // FMTK_EVAL_COMPILED_EVAL_H_
