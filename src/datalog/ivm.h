#ifndef FMTK_DATALOG_IVM_H_
#define FMTK_DATALOG_IVM_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "datalog/program.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

/// Counters for the last ApplyInsert / ApplyDelete call.
struct IvmStats {
  std::size_t rounds = 0;          // Fixpoint / forward-pass rounds run.
  std::uint64_t edb_changed = 0;   // EDB tuples actually added / removed.
  std::uint64_t idb_inserted = 0;  // Net new IDB tuples.
  std::uint64_t idb_deleted = 0;   // Net IDB tuples removed.
  // Delete only. Candidates the B/F forward pass reached (distinct IDB
  // facts derived through a deleted tuple or a disproved fact).
  std::uint64_t overestimate = 0;
  // Delete only. Candidates the backward check proved still derivable;
  // they stay in the IDB and propagate nothing. Always
  // overestimate - idb_deleted.
  std::uint64_t rederived = 0;
  // Delete only. Facts the backward check explored: the candidates plus
  // the body facts it searched through (B/F's checked set).
  std::uint64_t checked = 0;
};

/// Incremental view maintenance over the compiled semi-naive machinery:
/// the session owns a mutable EDB structure plus the materialized IDB
/// relations, and keeps the IDB exact under batched EDB insertions and
/// deletions without recomputing the fixpoint from scratch.
///
///  * Creation compiles the program in incremental mode — one delta
///    variant per body position, EDB positions included, since the EDB is
///    append-only within a batch — and materializes the initial fixpoint
///    by treating the whole EDB as the first insertion delta.
///  * ApplyInsert appends the batch to the EDB and runs delta-driven
///    rounds: round 1's delta is the appended EDB suffix, later rounds
///    promote newly derived IDB tuples, exactly the semi-naive invariant.
///    Cost scales with the derivations the batch actually triggers, not
///    with the size of the materialized view.
///  * ApplyDelete runs Backward/Forward (B/F; Motik, Nenov, Piro,
///    Horrocks, AAAI 2015). A forward pass joins the deleted tuples with
///    the database round by round to find the facts that lose a
///    derivation. Before such a candidate's deletion spreads, a backward
///    check searches the head-bound join plans for another derivation
///    from the remaining EDB, the fact schemas and facts already proved
///    (never from facts still being checked, so self-support and cyclic
///    support prove nothing). A proved candidate stays and propagates
///    nothing; a disproved one feeds the next round. The disproved facts
///    are erased once at the end. Fact-schema tuples are never deleted
///    (their support is the domain, not the EDB).
///
/// tests/ivm_test.cc and tests/ivm_model_test.cc differential-test both
/// paths against from-scratch re-evaluation on fixed-seed workloads.
class IncrementalDatalogSession {
 public:
  /// Compiles `program` against a private copy of `edb` and materializes
  /// the initial IDB fixpoint. Fails like CompiledDatalogEngine::Create,
  /// and with InvalidArgument when a rule head names a constant outside
  /// the domain (the session's domain never changes).
  static Result<IncrementalDatalogSession> Create(
      const DatalogProgram& program, Structure edb);

  /// Appends `tuples` to the named EDB relation (duplicates are ignored)
  /// and maintains the IDB. Fails without side effects when the relation
  /// is unknown, an arity mismatches, or an element is out of range.
  Status ApplyInsert(std::string_view relation,
                     const std::vector<Tuple>& tuples);

  /// Removes `tuples` from the named EDB relation (absent tuples are
  /// ignored) and maintains the IDB via B/F.
  Status ApplyDelete(std::string_view relation,
                     const std::vector<Tuple>& tuples);

  /// The maintained IDB relations by predicate name. Pointers stay valid
  /// for the session's lifetime; contents change with each Apply call.
  std::map<std::string, const Relation*> Materialized() const;

  /// The session's current EDB (the private copy, with all batches
  /// applied).
  const Structure& edb() const;

  /// Counters for the most recent Apply call.
  const IvmStats& last_stats() const;

 private:
  struct Impl;
  explicit IncrementalDatalogSession(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

}  // namespace fmtk

#endif  // FMTK_DATALOG_IVM_H_
