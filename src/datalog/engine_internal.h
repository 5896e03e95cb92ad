#ifndef FMTK_DATALOG_ENGINE_INTERNAL_H_
#define FMTK_DATALOG_ENGINE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "datalog/program.h"
#include "structures/relation.h"
#include "structures/structure.h"

/// Shared internals of the compiled semi-naive machinery: the batch engine
/// (compiled_engine.cc) and the incremental-maintenance session (ivm.cc)
/// compile rules to the same slot/join-step representation and drive the
/// same join executor; only the fixpoint drivers differ. Nothing here is
/// part of the public API.

namespace fmtk {
namespace internal_datalog {

// A term compiled to an integer slot or an inline constant.
struct SlotTerm {
  bool is_const = false;
  Element value = 0;  // is_const
  int slot = -1;      // !is_const
};

// Which view of a body atom's store a join step reads. In batch mode EDB
// atoms always use kEdb (whole extent) and only IDB atoms carry the
// semi-naive old/full/delta split. In incremental mode EVERY body position
// gets a delta variant — the EDB is append-only within a batch, so its
// old/new views are prefix ranges exactly like the IDB's — and kEdb never
// appears.
enum class AtomRole {
  kEdb,    // EDB relation, whole extent (batch mode only).
  kFull,   // Before the delta position: [0, delta_end).
  kOld,    // After the delta position: [0, delta_begin).
  kDelta,  // The delta position itself: [delta_begin, delta_end).
};

// How one join step treats one column of its atom, decided at compile time
// from the statically known set of slots bound by earlier steps.
struct PosAction {
  enum Kind { kCheckConst, kCheckSlot, kBind } kind = kBind;
  Element value = 0;  // kCheckConst
  int slot = -1;      // kCheckSlot / kBind
};

struct JoinStep {
  bool is_idb = false;
  // Negated (stratified) atom: ordered after every positive step, so all
  // of its columns arrive bound (safety, FMTK111) and the step degenerates
  // to one membership probe that succeeds iff NO tuple matches. The store
  // it reads is complete — the EDB is immutable, and a negated IDB atom is
  // strictly lower-stratum, frozen once its stratum closed.
  bool negated = false;
  std::size_t pred = 0;  // IDB id, or EDB relation index in the signature.
  AtomRole role = AtomRole::kEdb;
  std::vector<PosAction> actions;       // One per column.
  std::vector<std::size_t> probe_cols;  // Columns bound before this step.
  // Batch mode only: per-column EDB ColumnIndex, bound once at Create (the
  // structure is immutable while the engine is in use). Incremental mode
  // mutates the EDB between batches — relations are even replaced wholesale
  // after deletions — so there the per-round pointers in RunState are used
  // instead, for EDB and IDB alike.
  std::vector<const Relation::ColumnIndex*> edb_index;
};

// One (rule, delta position) execution plan with its own join order.
struct Variant {
  std::vector<JoinStep> steps;
};

struct RuleExec {
  std::size_t head_pred = 0;  // IDB id.
  std::vector<SlotTerm> head;
  std::size_t slot_count = 0;
  // The head predicate's stratum: the rule runs only in this stratum's
  // round loop (stratum 0 for negation-free programs).
  std::size_t stratum = 0;
  // No positive same-stratum IDB body atom (only EDB atoms, negated atoms,
  // and completed lower strata): nothing it reads changes within its
  // stratum, so it fires in the stratum's first round only.
  bool pure_edb = false;
  bool is_fact = false;  // Empty body: seeded before round 1.
  std::vector<Variant> variants;
  // Distinct head-variable slots of a fact rule, first-occurrence order.
  std::vector<int> fact_slots;
  // Incremental mode: the head-bound plan of B/F's backward check — all-
  // full roles, join order chosen with the head slots pre-bound. A
  // deletion check seeds the environment from a candidate's head tuple
  // and enumerates the body instances that still support it.
  std::optional<Variant> rederive;
};

// The subset of DatalogStats the join recursion itself touches
// (rule_applications and tuples_new are counted by the round loop).
struct StatsAcc {
  std::uint64_t atom_visits = 0;
  std::uint64_t tuples_derived = 0;
  std::uint64_t index_probes = 0;
  std::uint64_t tuples_scanned = 0;
};

struct EngineImpl {
  const DatalogProgram* program = nullptr;
  const Structure* edb = nullptr;
  // Incremental compilation: delta variants at every body position (EDB
  // included), no pre-bound EDB indexes, and a rederive plan per rule.
  bool incremental = false;

  std::vector<std::string> idb_names;  // id -> name
  std::vector<std::size_t> idb_arity;  // id -> arity
  std::unordered_map<std::string, std::size_t> idb_id;

  std::vector<RuleExec> rules;
  // Per IDB id: columns probed by some step (synced once per round).
  std::vector<std::vector<std::size_t>> probed_cols;
  // Per EDB relation index, incremental mode only: columns probed by some
  // step (batch mode pre-binds them in JoinStep::edb_index instead).
  std::vector<std::vector<std::size_t>> edb_probed_cols;
  std::vector<std::string> join_orders;
  // The analyzer's SCC classification and warnings, surfaced in
  // DatalogStats after a run.
  std::vector<std::string> recursion_info;
  std::vector<std::string> analyzer_warnings;
  // Stratum schedule from the analyzer: per-IDB-predicate stratum, the
  // number of strata (1 for negation-free programs), and the rendered
  // summary surfaced in DatalogStats::strata.
  std::vector<std::size_t> idb_stratum;  // id -> stratum
  std::size_t stratum_count = 1;
  std::vector<std::string> strata_info;

  Status Compile();
  Status CompileRule(const DlRule& rule);
  // Greedy join order over the POSITIVE body atoms; negated atoms are
  // appended afterwards in source order so all their variables are bound.
  std::vector<std::size_t> ChooseJoinOrder(
      const std::vector<std::vector<SlotTerm>>& body_terms,
      const std::vector<bool>& body_is_idb,
      const std::vector<std::size_t>& body_pred,
      const std::vector<bool>& body_negated,
      const std::optional<std::size_t>& delta_at,
      const std::vector<bool>* initial_bound = nullptr) const;
};

// Seeds the fact schemas into `idb` (head variables range over the whole
// domain). Shared by the batch evaluator's round 0 and the session's
// initial materialization.
Status SeedFacts(const EngineImpl& impl, std::vector<Relation>& idb);

// Per-run mutable state: the IDB relations plus the delta ranges of the
// round in flight. "old" = [0, delta_begin), "full-new" = [0, delta_end),
// "delta" = [delta_begin, delta_end); tuples derived during the round land
// at indices >= delta_end and stay invisible until the next promotion.
//
// Incremental mode adds the same prefix bookkeeping for the EDB relations
// (append-only within a batch) and, for B/F deletion, redirects kDelta
// reads to side stores of deleted tuples while the main ranges are pinned
// to the full extent.
struct RunState {
  std::vector<Relation> idb;
  std::vector<std::size_t> delta_begin;
  std::vector<std::size_t> delta_end;
  // Per (IDB id, column): the generation-tagged ColumnIndex, synced at the
  // round start to cover at least [0, delta_end); nullptr for unprobed
  // columns. Frozen for the rest of the round.
  std::vector<std::vector<const Relation::ColumnIndex*>> idb_index;

  // ---- Incremental mode only (empty/false in batch runs) ----------------
  std::vector<std::size_t> edb_delta_begin;
  std::vector<std::size_t> edb_delta_end;
  std::vector<std::vector<const Relation::ColumnIndex*>> edb_index;

  // B/F forward pass: kDelta steps read the deletion side stores below
  // (whose delta ranges grow across rounds like the IDB's: del_idb holds
  // the facts disproved so far, del_edb the deleted EDB batch), and
  // derivations land in `candidates` instead of idb.
  bool deletion_mode = false;
  std::vector<Relation>* candidates = nullptr;
  std::vector<Relation>* del_idb = nullptr;
  std::vector<Relation>* del_edb = nullptr;
  std::vector<std::size_t> del_idb_begin;
  std::vector<std::size_t> del_idb_end;
  std::vector<std::size_t> del_edb_begin;
  std::vector<std::size_t> del_edb_end;
  std::vector<std::vector<const Relation::ColumnIndex*>> del_idb_index;
  std::vector<std::vector<const Relation::ColumnIndex*>> del_edb_index;
};

// The backward half of B/F deletion (ivm.cc) drives check runs through
// these hooks: the IDB body tuple a plan step matched (row `position` of
// IDB relation `pred`) must pass AcceptIdb before the join continues
// through it, and every complete body instance goes to OnInstance, which
// returns true to end the search.
class CheckHooks {
 public:
  virtual bool AcceptIdb(std::size_t step, std::size_t pred,
                         std::size_t position) = 0;
  virtual bool OnInstance() = 0;

 protected:
  ~CheckHooks() = default;
};

// One in-flight execution of a rule variant: inserting directly into the
// derive target, or enumerating the instances that support one head tuple
// (a B/F check run).
class VariantRun {
 public:
  VariantRun(const EngineImpl& impl, const RuleExec& rule,
             const Variant& variant, RunState& rs, StatsAcc& acc)
      : impl_(impl),
        rule_(rule),
        variant_(variant),
        rs_(rs),
        acc_(acc),
        env_(rule.slot_count, 0),
        isect_(variant.steps.size()) {}

  bool changed() const { return changed_; }
  std::uint64_t tuples_new() const { return tuples_new_; }

  Status Execute();
  // Runs the plan as a check from `env` (the head-bound slots, one entry
  // per rule slot): nothing is derived, and `hooks` vets IDB body tuples
  // and receives the complete instances. The run object is reusable: its
  // probe scratch keeps its capacity across checks.
  Status ExecuteCheck(const std::vector<Element>& env, CheckHooks& hooks);

 private:
  // kCheck selects the check-run instantiation; the derive instantiation
  // is the batch and insertion hot path and pays nothing for it.
  template <bool kCheck>
  Status Step(std::size_t depth);
  template <bool kCheck>
  Status TryTuple(std::size_t depth, const JoinStep& s, const Relation& rel,
                  std::size_t tuple_index);
  Status Derive();

  const EngineImpl& impl_;
  const RuleExec& rule_;
  const Variant& variant_;
  RunState& rs_;
  StatsAcc& acc_;
  std::vector<Element> env_;
  Tuple out_;
  Tuple probe_;  // Scratch for negated-step membership probes.
  CheckHooks* hooks_ = nullptr;
  bool found_ = false;  // A check run's OnInstance asked to stop.
  bool changed_ = false;
  std::uint64_t tuples_new_ = 0;
  // Probe scratch, reused across Step() calls. spans_, mat_, and tmp_ are
  // done with before the recursion resumes; isect_ is per-depth because a
  // step iterates its intersection while deeper steps compute theirs.
  // Posting lists arrive as (CSR slice, tail) views; a view with both
  // parts non-empty is materialized into mat_ so the intersection kernels
  // see one contiguous sorted span.
  std::vector<std::pair<const std::uint32_t*, std::size_t>> spans_;
  std::vector<std::vector<std::uint32_t>> mat_;
  std::vector<std::vector<std::uint32_t>> isect_;
  std::vector<std::uint32_t> tmp_;
};

}  // namespace internal_datalog
}  // namespace fmtk

#endif  // FMTK_DATALOG_ENGINE_INTERNAL_H_
