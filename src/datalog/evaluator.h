#ifndef FMTK_DATALOG_EVALUATOR_H_
#define FMTK_DATALOG_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "datalog/program.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

/// Work counters for the fixed-point computation (E14 compares naive and
/// compiled-indexed semi-naive iteration behaviour).
struct DatalogStats {
  std::size_t iterations = 0;
  /// Rule firings: one per execution of a rule body (per delta variant per
  /// round). NOT body-atom visits — those are atom_visits.
  std::uint64_t rule_applications = 0;
  /// Body-atom visits inside the join (one per atom reached with some
  /// prefix binding).
  std::uint64_t atom_visits = 0;
  std::uint64_t tuples_derived = 0;   // Including duplicates rederived.
  std::uint64_t tuples_new = 0;       // Actually inserted.
  /// Posting-list probes issued by the compiled engine (a bound column
  /// looked up in a ColumnIndex instead of scanning the relation).
  std::uint64_t index_probes = 0;
  /// Candidate tuples examined across all scans and probes.
  std::uint64_t tuples_scanned = 0;
  /// Compiled engine only: one human-readable line per (rule, delta
  /// variant) describing the chosen join order, e.g.
  /// "tc(x,y) :- E(x,z), tc(z,y). [d@2] tc(z,y):delta, E(x,z):probe(1)".
  std::vector<std::string> join_orders;
  /// The static analyzer's recursion classification: one line per SCC of
  /// the predicate dependency graph, dependencies first, e.g.
  /// "{tc} nonlinear recursion (2 recursive atoms)". Nonlinear SCCs are
  /// why the compiled engine emits one delta variant per recursive atom.
  std::vector<std::string> recursion_info;
  /// Warnings the analyzer reported for the accepted program
  /// (e.g. FMTK107 domain-dependent fact schemas).
  std::vector<std::string> analyzer_warnings;
  /// Stratum assignment the engines scheduled by, one line per stratum
  /// bottom-up ("stratum 0: {r, tc}"). A single line for negation-free
  /// programs.
  std::vector<std::string> strata;

  /// Counters on one line (join_orders omitted).
  std::string ToString() const;
};

/// Evaluation strategy.
enum class DatalogStrategy {
  /// Seed interpreter, full re-derivation each round. The differential
  /// oracle; nothing performance-critical should use it.
  kNaive,
  /// Compiled, index-driven engine with the standard semi-naive delta
  /// decomposition (full-new before the delta position, pre-round
  /// snapshots after it). The default.
  kSemiNaive,
};

/// Bottom-up least-fixpoint evaluation of a Datalog program (optionally
/// with stratified negation, evaluated stratum-by-stratum: negated atoms
/// read the completed relations of strictly lower strata) over the EDB
/// given by a structure's relations. Returns the IDB relations by
/// predicate name. Unstratifiable programs are rejected through the
/// analyzer front door (FMTK110).
Result<std::map<std::string, Relation>> EvaluateDatalog(
    const DatalogProgram& program, const Structure& edb,
    DatalogStrategy strategy = DatalogStrategy::kSemiNaive,
    DatalogStats* stats = nullptr);

}  // namespace fmtk

#endif  // FMTK_DATALOG_EVALUATOR_H_
