#ifndef FMTK_DATALOG_COMPILED_ENGINE_H_
#define FMTK_DATALOG_COMPILED_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

namespace internal_datalog {
struct EngineImpl;
}  // namespace internal_datalog

/// The compiled, index-driven Datalog engine behind
/// DatalogStrategy::kSemiNaive — the Datalog counterpart of
/// eval/compiled_eval's treatment of FO:
///
///  * Each rule is compiled once against (program, structure): variables
///    become integer slots in a flat std::vector<Element> environment,
///    body atoms resolve to Relation handles (EDB) or IDB ids, and every
///    constant / repeated-variable / bound-variable position becomes a
///    precomputed check so the inner join loop never touches a string.
///  * One join order per (rule, delta position), chosen greedily: the
///    delta atom leads, then the atom with the most bound positions
///    (tie-break: smaller estimated relation) until the body is ordered.
///  * Each join step probes the most selective bound column through
///    Relation::ColumnIndex posting lists instead of scanning every row
///    end to end; relations are never copied — "old" / "full-new" /
///    "delta" views are index ranges over the append-only tuple store,
///    and the generation-tagged ColumnIndex is synced once per round.
///  * Standard semi-naive decomposition: the variant with the delta at
///    IDB position k joins full-new relations before k and pre-round
///    snapshots after k, so multi-IDB-atom rules stop re-deriving the
///    same tuple once per position. Pure-EDB rules fire in round 1 only.
///
/// The seed interpreter (DatalogStrategy::kNaive) remains the
/// differential oracle; tests/datalog_differential_test.cc holds the two
/// engines to identical IDB relations on fixed-seed random programs.
class CompiledDatalogEngine {
 public:
  /// Compiles `program` against `edb`. Fails with the same Status codes as
  /// the seed engine: InvalidArgument for IDB/EDB name collisions,
  /// SignatureMismatch for unknown EDB predicates or arity mismatches.
  /// The program and structure must outlive the engine; the structure must
  /// not be mutated while the engine is in use.
  static Result<CompiledDatalogEngine> Create(const DatalogProgram& program,
                                              const Structure& edb);

  /// Runs the fixpoint from scratch and returns the IDB relations by name.
  /// Callable repeatedly (each call restarts from the seeded facts).
  Result<std::map<std::string, Relation>> Evaluate(
      DatalogStats* stats = nullptr);

  /// The join-order description lines also reported via
  /// DatalogStats::join_orders.
  const std::vector<std::string>& join_orders() const;

 private:
  explicit CompiledDatalogEngine(
      std::shared_ptr<internal_datalog::EngineImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal_datalog::EngineImpl> impl_;
};

}  // namespace fmtk

#endif  // FMTK_DATALOG_COMPILED_ENGINE_H_
