#include "datalog/ivm.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/check.h"
#include "datalog/engine_internal.h"

namespace fmtk {

using internal_datalog::EngineImpl;
using internal_datalog::RuleExec;
using internal_datalog::RunState;
using internal_datalog::SlotTerm;
using internal_datalog::StatsAcc;
using internal_datalog::Variant;
using internal_datalog::VariantRun;

namespace {

// The backward half of B/F (Motik, Nenov, Piro, Horrocks, AAAI 2015) for
// one ApplyDelete call. Check(p, row) decides whether a forward-pass
// candidate still has a derivation from the erased EDB, the fact schemas
// and facts already proved; a candidate it does not prove joins D, the
// disproved facts. Support from a fact that is merely being checked proves
// nothing, so a fact held up only by itself or by a cycle (tc(a,b) via a
// self-loop E(a,a); nonlinear TC on a 2-cycle) is not proved.
//
// Exploring a fact enumerates its rule instances through the head-bound
// rederive plans, reading IDB body facts from I \ D (AcceptIdb rejects D).
// An instance whose IDB body facts are all proved proves the fact; every
// other instance is recorded with its count of unproved body facts, and
// those facts are explored in turn, depth-first on an explicit stack (a
// long chain of support cannot overflow the call stack). A fact stops
// exploring as soon as it is proved. Proving a fact forward-chains through
// the recorded instances waiting on it (B/F's saturate step).
//
// When Check returns, a checked fact that is not proved has no derivation
// in the post-deletion database: each of its instances over I \ D was
// recorded, and every body fact of each was explored to completion or was
// on the stack, so the proved set is closed under the recorded instances.
// The checked and proved sets persist across calls, so later candidates
// reuse every earlier verdict.
//
// The IDB stays put until the pass ends, so a fact's id is its row
// position in rs.idb[pred], offset by the sizes of the predicates before
// it; per-fact state lives in arrays indexed by id (5 bytes per IDB row
// and delete, which the index rebuild after the erasure outweighs).
class BackwardCheck final : public internal_datalog::CheckHooks {
 public:
  BackwardCheck(const EngineImpl& engine, RunState& rs, StatsAcc& acc,
                const std::vector<Relation>& facts)
      : engine_(engine), idb_(rs.idb), facts_(facts) {
    base_.reserve(idb_.size() + 1);
    base_.push_back(0);
    for (const Relation& rel : idb_) {
      base_.push_back(base_.back() + rel.size());
    }
    flags_.assign(base_.back(), 0);
    wait_head_.assign(base_.back(), kNone);
    runs_.resize(engine.rules.size());
    for (std::size_t i = 0; i < engine.rules.size(); ++i) {
      const RuleExec& rule = engine.rules[i];
      if (!rule.is_fact && rule.rederive.has_value()) {
        runs_[i] = std::make_unique<VariantRun>(engine, rule, *rule.rederive,
                                                rs, acc);
        accepted_.resize(
            std::max(accepted_.size(), rule.rederive->steps.size()));
      }
    }
  }

  // True when fact `row` of IDB predicate `pred` is still derivable; a
  // fact it does not prove is disproved from then on.
  Result<bool> Check(std::size_t pred, const Element* row) {
    const std::size_t position = idb_[pred].Position(row);
    if (position == Relation::kNoPosition) {
      return false;  // Not in the IDB: nothing to keep.
    }
    const std::uint32_t id = Id(pred, position);
    if (!(flags_[id] & kExplored)) {
      FMTK_RETURN_IF_ERROR(Explore(id));
      while (!stack_.empty()) {
        Frame& top = stack_.back();
        if ((flags_[top.fact] & kProved) || top.next == top.end) {
          stack_.pop_back();
          continue;
        }
        const std::uint32_t body = body_facts_[top.next++];
        if (!(flags_[body] & kExplored)) {
          FMTK_RETURN_IF_ERROR(Explore(body));  // May push: `top` dangles.
        }
      }
    }
    if (flags_[id] & kProved) {
      return true;
    }
    flags_[id] |= kDisproved;
    return false;
  }

  // Facts explored so far (the size of B/F's checked set).
  std::uint64_t checked() const { return checked_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint8_t kExplored = 1;
  static constexpr std::uint8_t kProved = 2;
  static constexpr std::uint8_t kDisproved = 4;

  // A fact whose recorded body facts are still being explored: body
  // occurrences [next, end) of body_facts_ remain.
  struct Frame {
    std::uint32_t fact;
    std::size_t next;
    std::size_t end;
  };

  std::uint32_t Id(std::size_t pred, std::size_t position) const {
    return static_cast<std::uint32_t>(base_[pred] + position);
  }

  bool AcceptIdb(std::size_t step, std::size_t pred,
                 std::size_t position) override {
    const std::uint32_t id = Id(pred, position);
    accepted_[step] = id;
    return !(flags_[id] & kDisproved);
  }

  // One instance of the rule under check; accepted_ holds the ids of its
  // IDB body facts at their plan steps.
  bool OnInstance() override {
    const std::size_t first_body = body_facts_.size();
    const std::vector<internal_datalog::JoinStep>& steps =
        rule_->rederive->steps;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      if (steps[k].is_idb && !(flags_[accepted_[k]] & kProved)) {
        body_facts_.push_back(accepted_[k]);
      }
    }
    if (body_facts_.size() == first_body) {
      Prove(fact_);
      return true;
    }
    const auto instance = static_cast<std::uint32_t>(instance_head_.size());
    instance_head_.push_back(fact_);
    instance_unproved_.push_back(
        static_cast<std::uint32_t>(body_facts_.size() - first_body));
    for (std::size_t k = first_body; k < body_facts_.size(); ++k) {
      const std::uint32_t body = body_facts_[k];
      wait_instance_.push_back(instance);
      wait_next_.push_back(wait_head_[body]);
      wait_head_[body] = static_cast<std::uint32_t>(wait_instance_.size() - 1);
    }
    return false;
  }

  // Enumerates the instances of fact `id`; pushes a frame for its unproved
  // body facts unless an instance proved it outright.
  Status Explore(std::uint32_t id) {
    flags_[id] |= kExplored;
    ++checked_;
    const std::size_t pred = static_cast<std::size_t>(
        std::upper_bound(base_.begin(), base_.end(), id) - base_.begin() - 1);
    const Element* row = idb_[pred].TupleData(id - base_[pred]);
    if (facts_[pred].ContainsRow(row)) {
      Prove(id);
      return Status::OK();
    }
    fact_ = id;
    const std::size_t first_body = body_facts_.size();
    for (std::size_t i = 0; i < engine_.rules.size(); ++i) {
      const RuleExec& rule = engine_.rules[i];
      if (runs_[i] == nullptr || rule.head_pred != pred ||
          !BindHead(rule, row)) {
        continue;
      }
      rule_ = &rule;
      FMTK_RETURN_IF_ERROR(runs_[i]->ExecuteCheck(env_, *this));
      if (flags_[id] & kProved) {
        return Status::OK();
      }
    }
    if (body_facts_.size() > first_body) {
      stack_.push_back({id, first_body, body_facts_.size()});
    }
    return Status::OK();
  }

  // Seeds env_ from the head row for `rule`; false when the head cannot
  // match (a constant differs, or a repeated variable disagrees).
  bool BindHead(const RuleExec& rule, const Element* row) {
    env_.assign(rule.slot_count, 0);
    bound_.assign(rule.slot_count, 0);
    for (std::size_t c = 0; c < rule.head.size(); ++c) {
      const SlotTerm& term = rule.head[c];
      if (term.is_const) {
        if (row[c] != term.value) {
          return false;
        }
        continue;
      }
      if (bound_[term.slot] && env_[term.slot] != row[c]) {
        return false;
      }
      env_[term.slot] = row[c];
      bound_[term.slot] = 1;
    }
    return true;
  }

  // Marks `id` proved and forward-chains to every recorded instance whose
  // last unproved body fact that was.
  void Prove(std::uint32_t id) {
    saturate_.assign(1, id);
    while (!saturate_.empty()) {
      const std::uint32_t fact = saturate_.back();
      saturate_.pop_back();
      if (flags_[fact] & kProved) {
        continue;
      }
      flags_[fact] |= kProved;
      for (std::uint32_t w = wait_head_[fact]; w != kNone; w = wait_next_[w]) {
        const std::uint32_t instance = wait_instance_[w];
        if (--instance_unproved_[instance] == 0 &&
            !(flags_[instance_head_[instance]] & kProved)) {
          saturate_.push_back(instance_head_[instance]);
        }
      }
    }
  }

  const EngineImpl& engine_;
  const std::vector<Relation>& idb_;
  const std::vector<Relation>& facts_;
  // One reusable check run per rule (null for fact schemas).
  std::vector<std::unique_ptr<VariantRun>> runs_;

  // Ids of predicate p are [base_[p], base_[p + 1]). Per id: the
  // explored / proved / disproved flags and the head of its list of
  // waiting instances.
  std::vector<std::size_t> base_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> wait_head_;
  // Waiting lists, linked through wait_next_: entry w says instance
  // wait_instance_[w] still needs its owner fact proved.
  std::vector<std::uint32_t> wait_instance_;
  std::vector<std::uint32_t> wait_next_;
  // Per recorded instance: the fact it derives and how many of its body
  // facts are unproved.
  std::vector<std::uint32_t> instance_head_;
  std::vector<std::uint32_t> instance_unproved_;
  // Unproved body facts of the recorded instances, instance after
  // instance; frames walk their own fact's slice.
  std::vector<std::uint32_t> body_facts_;
  std::vector<Frame> stack_;
  std::vector<std::uint32_t> saturate_;
  std::uint64_t checked_ = 0;

  // Scratch of the exploration in flight.
  std::uint32_t fact_ = 0;
  const RuleExec* rule_ = nullptr;
  std::vector<std::uint32_t> accepted_;  // Body fact id per plan step.
  std::vector<Element> env_;
  std::vector<std::uint8_t> bound_;
};

}  // namespace

struct IncrementalDatalogSession::Impl {
  Impl(DatalogProgram program_in, Structure edb_in)
      : program(std::move(program_in)), edb(std::move(edb_in)) {}

  DatalogProgram program;  // Private copies: the session outlives callers'
  Structure edb;           // arguments and mutates the EDB in place.
  EngineImpl engine;
  RunState rs;
  // Fact-schema tuples seeded at Create: their support is the domain, not
  // the EDB, so a deletion check counts them as proved.
  std::vector<Relation> facts;
  IvmStats stats;
  StatsAcc acc;

  std::size_t IdbTupleCount() const {
    std::size_t total = 0;
    for (const Relation& r : rs.idb) {
      total += r.size();
    }
    return total;
  }

  // Checks a write batch for EDB relation `r` (named `relation`) before
  // any side effect: every tuple must have the relation's arity and
  // elements inside the structure's domain.
  Status ValidateBatch(std::string_view relation, std::size_t r,
                       const std::vector<Tuple>& tuples) const {
    const std::size_t arity = edb.signature().relation(r).arity;
    for (const Tuple& t : tuples) {
      if (t.size() != arity) {
        return Status::InvalidArgument("tuple arity mismatch for relation " +
                                       std::string(relation));
      }
      for (const Element e : t) {
        if (e >= edb.domain_size()) {
          return Status::InvalidArgument("element " + std::to_string(e) +
                                         " outside the structure's domain");
        }
      }
    }
    return Status::OK();
  }

  // Syncs the per-round ColumnIndex pointers for every probed column of
  // the main IDB and EDB stores.
  void SyncMainIndexes() {
    for (std::size_t p = 0; p < rs.idb.size(); ++p) {
      for (std::size_t c : engine.probed_cols[p]) {
        rs.idb_index[p][c] = &rs.idb[p].column_index(c);
      }
    }
    for (std::size_t r = 0; r < rs.edb_index.size(); ++r) {
      for (std::size_t c : engine.edb_probed_cols[r]) {
        rs.edb_index[r][c] = &edb.relation(r).column_index(c);
      }
    }
  }

  // Syncs the side-store ColumnIndex pointers the forward pass reads. A
  // side store is only ever a kDelta step, the first of its plan, so only
  // the columns a delta step probes (its constants) need an index.
  void SyncDeletionIndexes(std::vector<Relation>& del_idb,
                           std::vector<Relation>& del_edb) {
    for (const RuleExec& rule : engine.rules) {
      for (const Variant& variant : rule.variants) {
        for (const internal_datalog::JoinStep& step : variant.steps) {
          if (step.role != internal_datalog::AtomRole::kDelta) {
            continue;
          }
          Relation& store = step.is_idb ? del_idb[step.pred]
                                        : del_edb[step.pred];
          auto& index = step.is_idb ? rs.del_idb_index[step.pred]
                                    : rs.del_edb_index[step.pred];
          for (std::size_t c : step.probe_cols) {
            index[c] = &store.column_index(c);
          }
        }
      }
    }
  }

  // Re-consolidates a store whose churn tail outgrew ~1/8 of its rows,
  // right after an erasure: later erasures pay per-tail-entry hash
  // fix-ups, and a sorted-dominant store keeps those on a map that fits in
  // cache. Waiting until after the erasure skips sorting the rows it
  // removes (a batch deleted soon after its insert sits in the tail).
  static void MaybeConsolidate(Relation& rel) {
    if (rel.unsorted_rows() > 4096 && rel.unsorted_rows() * 8 > rel.size()) {
      rel.Consolidate();
    }
  }

  // Pins the main-store delta ranges so kFull and kOld both read the whole
  // current extent (the deletion passes read the database as-is, no delta
  // split).
  void PinMainRangesToFull() {
    for (std::size_t p = 0; p < rs.idb.size(); ++p) {
      rs.delta_begin[p] = rs.delta_end[p] = rs.idb[p].size();
    }
    for (std::size_t r = 0; r < rs.edb_delta_begin.size(); ++r) {
      rs.edb_delta_begin[r] = rs.edb_delta_end[r] = edb.relation(r).size();
    }
  }

  // Runs every rule variant once over the current ranges (fact schemas
  // were seeded at Create; the domain never changes). Sets `changed` when
  // some derivation was new.
  Status RunRound(bool& changed) {
    for (const RuleExec& rule : engine.rules) {
      if (rule.is_fact) {
        continue;
      }
      for (const Variant& variant : rule.variants) {
        VariantRun run(engine, rule, variant, rs, acc);
        FMTK_RETURN_IF_ERROR(run.Execute());
        changed = changed || run.changed();
      }
    }
    return Status::OK();
  }

  // Semi-naive insertion propagation. The caller establishes round 1's
  // delta ranges (the appended EDB suffix); subsequent rounds promote newly
  // derived IDB tuples and collapse the EDB deltas to empty. Runs until a
  // round derives nothing new.
  Status RunInsertFixpoint() {
    bool first = true;
    bool changed = true;
    while (changed) {
      ++stats.rounds;
      changed = false;
      if (!first) {
        for (std::size_t p = 0; p < rs.idb.size(); ++p) {
          rs.delta_begin[p] = rs.delta_end[p];
          rs.delta_end[p] = rs.idb[p].size();
        }
        for (std::size_t r = 0; r < rs.edb_delta_begin.size(); ++r) {
          rs.edb_delta_begin[r] = rs.edb_delta_end[r] =
              edb.relation(r).size();
        }
      }
      first = false;
      SyncMainIndexes();
      FMTK_RETURN_IF_ERROR(RunRound(changed));
    }
    return Status::OK();
  }

  // B/F deletion of del_edb[r], the batch tuples present in EDB relation r.
  // The forward pass is the deletion-delta join, round by round: round 1's
  // delta is the batch, read while the EDB still holds it, so every
  // instance through one or more deleted EDB tuples is reached; each later
  // round's delta is the facts disproved in the round before. Every other
  // atom reads the whole IDB (D is erased only at the end) and, after
  // round 1, the EDB without the batch. A candidate is checked before it
  // may spread: a proved one stays in the IDB and propagates nothing, a
  // disproved one joins D and the next round's delta.
  Status RunBackwardForward(std::size_t r, std::vector<Relation>& del_edb) {
    const std::size_t idb_count = rs.idb.size();
    std::vector<Relation> candidates;
    std::vector<Relation> disproved;
    candidates.reserve(idb_count);
    disproved.reserve(idb_count);
    for (const Relation& rel : rs.idb) {
      candidates.emplace_back(rel.arity());
      disproved.emplace_back(rel.arity());
    }
    rs.deletion_mode = true;
    rs.candidates = &candidates;
    rs.del_idb = &disproved;
    rs.del_edb = &del_edb;
    PinMainRangesToFull();
    rs.del_idb_begin.assign(idb_count, 0);
    rs.del_idb_end.assign(idb_count, 0);
    rs.del_edb_begin.assign(del_edb.size(), 0);
    rs.del_edb_end.assign(del_edb.size(), 0);
    rs.del_edb_end[r] = del_edb[r].size();
    BackwardCheck check(engine, rs, acc, facts);
    std::vector<std::size_t> checked_upto(idb_count, 0);
    Tuple row;
    Status status = Status::OK();
    bool first = true;
    bool grew = true;
    while (grew && status.ok()) {
      ++stats.rounds;
      SyncMainIndexes();
      SyncDeletionIndexes(disproved, del_edb);
      bool derived = false;
      status = RunRound(derived);
      if (!status.ok()) {
        break;
      }
      if (first) {
        // Only round 1 reads the batch; checks and later rounds see the EDB
        // without it.
        edb.MutableRelation(r).EraseRows(del_edb[r]);
        MaybeConsolidate(edb.MutableRelation(r));
        rs.del_edb_begin[r] = rs.del_edb_end[r];
        PinMainRangesToFull();
        SyncMainIndexes();
        first = false;
      }
      grew = false;
      for (std::size_t p = 0; p < idb_count && status.ok(); ++p) {
        rs.del_idb_begin[p] = disproved[p].size();
        const std::size_t arity = disproved[p].arity();
        for (; checked_upto[p] < candidates[p].size(); ++checked_upto[p]) {
          const Element* t = candidates[p].TupleData(checked_upto[p]);
          const Result<bool> proved = check.Check(p, t);
          if (!proved.ok()) {
            status = proved.status();
            break;
          }
          if (!*proved) {
            row.assign(t, t + arity);
            disproved[p].Add(row);
            grew = true;
          }
        }
        rs.del_idb_end[p] = disproved[p].size();
      }
    }
    rs.deletion_mode = false;
    rs.candidates = nullptr;
    rs.del_idb = nullptr;
    rs.del_edb = nullptr;
    FMTK_RETURN_IF_ERROR(status);
    // Erase D once. Fact-schema tuples are never in it: a check proves
    // them outright.
    std::uint64_t deleted = 0;
    for (std::size_t p = 0; p < idb_count; ++p) {
      stats.overestimate += candidates[p].size();
      deleted += disproved[p].size();
      if (!disproved[p].empty()) {
        rs.idb[p].EraseRows(disproved[p]);
        MaybeConsolidate(rs.idb[p]);
      }
    }
    // Leave the indexes synced, as ApplyInsert does: the rebuild the
    // erasures forced is this call's cost, not the next call's.
    SyncMainIndexes();
    stats.rederived = stats.overestimate - deleted;
    stats.checked = check.checked();
    return Status::OK();
  }
};

Result<IncrementalDatalogSession> IncrementalDatalogSession::Create(
    const DatalogProgram& program, Structure edb) {
  // B/F tracks support through positive derivations only; a deletion can
  // make a negated atom true and thereby ADD tuples, which the forward
  // pass does not model. Stratified programs with negation must
  // re-evaluate in batch mode. The domain never changes, so a head
  // constant outside it could only fail a later write halfway through.
  for (const DlRule& rule : program.rules()) {
    for (const DlAtom& atom : rule.body) {
      if (atom.negated) {
        return Status::Unsupported(
            "incremental maintenance does not support negation (rule '" +
            rule.ToString() + "'); use batch evaluation");
      }
    }
    for (const DlTerm& term : rule.head.terms) {
      if (!term.is_variable && term.value >= edb.domain_size()) {
        return Status::InvalidArgument(
            "constant " + std::to_string(term.value) + " in rule '" +
            rule.ToString() + "' outside the structure's domain");
      }
    }
  }
  auto impl = std::make_shared<Impl>(program, std::move(edb));
  impl->engine.program = &impl->program;
  impl->engine.edb = &impl->edb;
  impl->engine.incremental = true;
  FMTK_RETURN_IF_ERROR(impl->engine.Compile());

  RunState& rs = impl->rs;
  rs.idb.reserve(impl->engine.idb_names.size());
  for (std::size_t arity : impl->engine.idb_arity) {
    rs.idb.emplace_back(arity);
  }
  const std::size_t idb_count = rs.idb.size();
  const std::size_t edb_count = impl->edb.signature().relation_count();
  rs.delta_begin.assign(idb_count, 0);
  rs.delta_end.assign(idb_count, 0);
  rs.idb_index.resize(idb_count);
  for (std::size_t p = 0; p < idb_count; ++p) {
    rs.idb_index[p].assign(rs.idb[p].arity(), nullptr);
  }
  rs.edb_delta_begin.assign(edb_count, 0);
  rs.edb_delta_end.assign(edb_count, 0);
  rs.edb_index.resize(edb_count);
  rs.del_idb_index.resize(idb_count);
  rs.del_edb_index.resize(edb_count);
  for (std::size_t r = 0; r < edb_count; ++r) {
    const std::size_t arity = impl->edb.signature().relation(r).arity;
    rs.edb_index[r].assign(arity, nullptr);
    rs.del_edb_index[r].assign(arity, nullptr);
  }
  for (std::size_t p = 0; p < idb_count; ++p) {
    rs.del_idb_index[p].assign(rs.idb[p].arity(), nullptr);
  }

  FMTK_RETURN_IF_ERROR(internal_datalog::SeedFacts(impl->engine, rs.idb));
  impl->facts = rs.idb;  // Snapshot before any rule-derived tuples land.

  // Initial materialization = "insert the whole EDB": round 1's deltas are
  // the seeded facts and the full EDB relations.
  for (std::size_t p = 0; p < idb_count; ++p) {
    rs.delta_begin[p] = 0;
    rs.delta_end[p] = rs.idb[p].size();
  }
  for (std::size_t r = 0; r < edb_count; ++r) {
    rs.edb_delta_begin[r] = 0;
    rs.edb_delta_end[r] = impl->edb.relation(r).size();
  }
  FMTK_RETURN_IF_ERROR(impl->RunInsertFixpoint());
  // Consolidate the materialized stores: the fixpoint built them tuple at
  // a time (fully hash-indexed), but the session's steady state wants the
  // sorted-prefix form whose deletion fix-ups touch only a small tail map.
  // Syncing afterwards warms the rebuilt column indexes so the first batch
  // does not pay the lazy rebuild.
  for (Relation& rel : rs.idb) {
    rel.Consolidate();
  }
  for (Relation& rel : impl->facts) {
    rel.Consolidate();
  }
  impl->SyncMainIndexes();
  impl->stats = IvmStats{};
  return IncrementalDatalogSession(std::move(impl));
}

Status IncrementalDatalogSession::ApplyInsert(
    std::string_view relation, const std::vector<Tuple>& tuples) {
  Impl& impl = *impl_;
  const std::optional<std::size_t> r =
      impl.edb.signature().FindRelation(relation);
  if (!r.has_value()) {
    return Status::SignatureMismatch("unknown EDB relation " +
                                     std::string(relation));
  }
  FMTK_RETURN_IF_ERROR(impl.ValidateBatch(relation, *r, tuples));
  impl.stats = IvmStats{};
  const std::size_t idb_before = impl.IdbTupleCount();
  const std::size_t pre = impl.edb.relation(*r).size();
  for (const Tuple& t : tuples) {
    impl.edb.AddTuple(*r, t);
  }
  const std::size_t post = impl.edb.relation(*r).size();
  impl.stats.edb_changed = post - pre;
  if (impl.stats.edb_changed == 0) {
    return Status::OK();  // Every tuple was already present.
  }

  // Round 1: the appended EDB suffix is the only delta.
  RunState& rs = impl.rs;
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    rs.delta_begin[p] = rs.delta_end[p] = rs.idb[p].size();
  }
  for (std::size_t r2 = 0; r2 < rs.edb_delta_begin.size(); ++r2) {
    const std::size_t sz = impl.edb.relation(r2).size();
    rs.edb_delta_begin[r2] = r2 == *r ? pre : sz;
    rs.edb_delta_end[r2] = sz;
  }
  FMTK_RETURN_IF_ERROR(impl.RunInsertFixpoint());
  impl.stats.idb_inserted = impl.IdbTupleCount() - idb_before;
  return Status::OK();
}

Status IncrementalDatalogSession::ApplyDelete(
    std::string_view relation, const std::vector<Tuple>& tuples) {
  Impl& impl = *impl_;
  const std::optional<std::size_t> r =
      impl.edb.signature().FindRelation(relation);
  if (!r.has_value()) {
    return Status::SignatureMismatch("unknown EDB relation " +
                                     std::string(relation));
  }
  FMTK_RETURN_IF_ERROR(impl.ValidateBatch(relation, *r, tuples));
  impl.stats = IvmStats{};
  const std::size_t idb_before = impl.IdbTupleCount();

  // The EDB deletion side store: the batch tuples actually present.
  const std::size_t edb_count = impl.edb.signature().relation_count();
  std::vector<Relation> del_edb;
  del_edb.reserve(edb_count);
  for (std::size_t r2 = 0; r2 < edb_count; ++r2) {
    del_edb.emplace_back(impl.edb.signature().relation(r2).arity);
  }
  for (const Tuple& t : tuples) {
    if (impl.edb.relation(*r).Contains(t)) {
      del_edb[*r].Add(t);
    }
  }
  impl.stats.edb_changed = del_edb[*r].size();
  if (impl.stats.edb_changed == 0) {
    return Status::OK();  // Nothing in the batch was present.
  }
  FMTK_RETURN_IF_ERROR(impl.RunBackwardForward(*r, del_edb));
  impl.stats.idb_deleted = idb_before - impl.IdbTupleCount();
  return Status::OK();
}

std::map<std::string, const Relation*> IncrementalDatalogSession::Materialized()
    const {
  std::map<std::string, const Relation*> out;
  for (std::size_t p = 0; p < impl_->engine.idb_names.size(); ++p) {
    out.emplace(impl_->engine.idb_names[p], &impl_->rs.idb[p]);
  }
  return out;
}

const Structure& IncrementalDatalogSession::edb() const { return impl_->edb; }

const IvmStats& IncrementalDatalogSession::last_stats() const {
  return impl_->stats;
}

}  // namespace fmtk
