#include "datalog/ivm.h"

#include <cstddef>
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

struct IncrementalDatalogSession::Impl {
  Impl(DatalogProgram program_in, Structure edb_in)
      : program(std::move(program_in)), edb(std::move(edb_in)) {}

  DatalogProgram program;  // Private copies: the session outlives callers'
  Structure edb;           // arguments and mutates the EDB in place.
  EngineImpl engine;
  RunState rs;
  // Fact-schema tuples seeded at Create: their support is the domain, not
  // the EDB, so DRed must never delete them.
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

  void SyncDeletionIndexes(std::vector<Relation>& del_idb,
                           std::vector<Relation>& del_edb) {
    for (std::size_t p = 0; p < del_idb.size(); ++p) {
      for (std::size_t c : engine.probed_cols[p]) {
        rs.del_idb_index[p][c] = &del_idb[p].column_index(c);
      }
    }
    for (std::size_t r = 0; r < del_edb.size(); ++r) {
      for (std::size_t c : engine.edb_probed_cols[r]) {
        rs.del_edb_index[r][c] = &del_edb[r].column_index(c);
      }
    }
  }

  // Pins the main-store delta ranges so kFull and kOld both read the whole
  // current extent (the deletion-overestimate and rederivation phases read
  // the database as-is, no delta split).
  void PinMainRangesToFull() {
    for (std::size_t p = 0; p < rs.idb.size(); ++p) {
      rs.delta_begin[p] = rs.delta_end[p] = rs.idb[p].size();
    }
    for (std::size_t r = 0; r < rs.edb_delta_begin.size(); ++r) {
      rs.edb_delta_begin[r] = rs.edb_delta_end[r] = edb.relation(r).size();
    }
  }

  // Semi-naive insertion propagation. The caller establishes round 1's
  // delta ranges (the appended EDB suffix and/or reinserted IDB suffix);
  // subsequent rounds promote newly derived IDB tuples and collapse the
  // EDB deltas to empty. Runs until a round derives nothing new.
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
      for (const RuleExec& rule : engine.rules) {
        if (rule.is_fact) {
          continue;  // Seeded at Create; the domain never changes.
        }
        for (const Variant& variant : rule.variants) {
          VariantRun run(engine, rule, variant, rs, acc);
          FMTK_RETURN_IF_ERROR(run.Execute());
          changed = changed || run.changed();
        }
      }
    }
    return Status::OK();
  }

  // DRed phase 1: the overestimate fixpoint. Seeds rs.del_* bookkeeping,
  // runs delta rounds where kDelta reads the deletion stores and every
  // other atom reads the full pre-deletion database, and collects every
  // IDB tuple with at least one derivation through a deleted tuple.
  Status RunDeleteOverestimate(std::vector<Relation>& del_idb,
                               std::vector<Relation>& del_edb) {
    rs.deletion_mode = true;
    rs.del_idb = &del_idb;
    rs.del_edb = &del_edb;
    PinMainRangesToFull();
    rs.del_idb_begin.assign(del_idb.size(), 0);
    rs.del_idb_end.assign(del_idb.size(), 0);
    rs.del_edb_begin.assign(del_edb.size(), 0);
    rs.del_edb_end.assign(del_edb.size(), 0);
    for (std::size_t r = 0; r < del_edb.size(); ++r) {
      rs.del_edb_end[r] = del_edb[r].size();
    }
    bool first = true;
    bool changed = true;
    Status status = Status::OK();
    while (changed && status.ok()) {
      ++stats.rounds;
      changed = false;
      if (!first) {
        for (std::size_t p = 0; p < del_idb.size(); ++p) {
          rs.del_idb_begin[p] = rs.del_idb_end[p];
          rs.del_idb_end[p] = del_idb[p].size();
        }
        for (std::size_t r = 0; r < del_edb.size(); ++r) {
          rs.del_edb_begin[r] = rs.del_edb_end[r];
        }
      }
      first = false;
      SyncMainIndexes();
      SyncDeletionIndexes(del_idb, del_edb);
      for (const RuleExec& rule : engine.rules) {
        if (rule.is_fact) {
          continue;
        }
        for (const Variant& variant : rule.variants) {
          VariantRun run(engine, rule, variant, rs, acc);
          status = run.Execute();
          if (!status.ok()) {
            break;
          }
          changed = changed || run.changed();
        }
        if (!status.ok()) {
          break;
        }
      }
    }
    rs.deletion_mode = false;
    rs.del_idb = nullptr;
    rs.del_edb = nullptr;
    return status;
  }

};

Result<IncrementalDatalogSession> IncrementalDatalogSession::Create(
    const DatalogProgram& program, Structure edb) {
  // DRed counts support through positive derivations only; a deletion can
  // make a negated atom true and thereby ADD tuples, which the
  // overestimate/rederive split does not model. Stratified programs with
  // negation must re-evaluate in batch mode.
  for (const DlRule& rule : program.rules()) {
    for (const DlAtom& atom : rule.body) {
      if (atom.negated) {
        return Status::Unsupported(
            "incremental maintenance does not support negation (rule '" +
            rule.ToString() + "'); use batch evaluation");
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

  // The deletion side stores: del_edb seeds with the batch tuples actually
  // present; del_idb collects the overestimate.
  const std::size_t edb_count = impl.edb.signature().relation_count();
  std::vector<Relation> del_edb;
  del_edb.reserve(edb_count);
  for (std::size_t r2 = 0; r2 < edb_count; ++r2) {
    del_edb.emplace_back(impl.edb.signature().relation(r2).arity);
  }
  for (const Tuple& t : tuples) {
    if (impl.edb.relation(*r).Contains(t)) {
      del_edb[*r].AddCopy(t);
    }
  }
  impl.stats.edb_changed = del_edb[*r].size();
  if (impl.stats.edb_changed == 0) {
    return Status::OK();  // Nothing in the batch was present.
  }
  std::vector<Relation> del_idb;
  del_idb.reserve(impl.rs.idb.size());
  for (const Relation& rel : impl.rs.idb) {
    del_idb.emplace_back(rel.arity());
  }

  // Re-consolidate any store whose churn tail outgrew ~1/8 of its rows:
  // the prune below pays per-tail-entry hash fix-ups, and a sorted-
  // dominant store keeps those on a map that fits in cache. The cleared
  // column indexes rebuild during the overestimate's first sync.
  auto maybe_consolidate = [](Relation& rel) {
    if (rel.unsorted_rows() > 4096 && rel.unsorted_rows() * 8 > rel.size()) {
      rel.Consolidate();
    }
  };
  for (std::size_t r2 = 0; r2 < edb_count; ++r2) {
    maybe_consolidate(impl.edb.MutableRelation(r2));
  }
  for (Relation& rel : impl.rs.idb) {
    maybe_consolidate(rel);
  }

  // Phase 1: overestimate everything derivable through a deleted tuple.
  FMTK_RETURN_IF_ERROR(impl.RunDeleteOverestimate(del_idb, del_edb));
  for (const Relation& rel : del_idb) {
    impl.stats.overestimate += rel.size();
  }

  // Phase 2a: prune. The EDB relation drops the batch in place; each
  // touched IDB relation drops its overestimated tuples — except fact-
  // schema tuples, whose support is the domain itself. Both sides go
  // through Relation::EraseRows: one membership probe per deleted row plus
  // a single compaction pass, so the cost scales with the overestimate,
  // not with O(|IDB|) rebuild work.
  RunState& rs = impl.rs;
  impl.edb.MutableRelation(*r).EraseRows(del_edb[*r]);
  // The candidates of predicate p: candidate_count[p] pruned rows, kept
  // arity-strided in doomed_rows[p] (empty at arity 0, where the only
  // candidate is the empty tuple).
  std::vector<std::vector<Element>> doomed_rows(rs.idb.size());
  std::vector<std::size_t> candidate_count(rs.idb.size(), 0);
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    if (del_idb[p].empty()) {
      continue;
    }
    const std::size_t parity = rs.idb[p].arity();
    if (parity == 0) {
      if (rs.idb[p].Contains({}) && !impl.facts[p].Contains({})) {
        candidate_count[p] = 1;
        rs.idb[p] = Relation(0);
      }
      continue;
    }
    // The candidates are the overestimated tuples actually present (every
    // del_idb row normally is — it was derived from the pre-deletion
    // fixpoint) minus the protected fact schemas.
    doomed_rows[p].reserve(del_idb[p].size() * parity);
    for (std::size_t i = 0; i < del_idb[p].size(); ++i) {
      const Element* row = del_idb[p].TupleData(i);
      if (rs.idb[p].ContainsRow(row) && !impl.facts[p].ContainsRow(row)) {
        doomed_rows[p].insert(doomed_rows[p].end(), row, row + parity);
        ++candidate_count[p];
      }
    }
    if (candidate_count[p] > 0) {
      rs.idb[p].EraseRows(Relation::FromRowsUnique(parity, doomed_rows[p]));
    }
  }
  // Phase 2b: rederive. Candidates with an alternative derivation among
  // the survivors come back; reinsertions land beyond the pinned ranges,
  // so every check sees exactly the pruned database.
  impl.PinMainRangesToFull();
  impl.SyncMainIndexes();
  std::vector<std::size_t> pruned_size(rs.idb.size());
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    pruned_size[p] = rs.idb[p].size();
  }
  Tuple reinsert;
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    if (candidate_count[p] == 0) {
      continue;
    }
    // One find-first run per rule with this head, constructed once and
    // rearmed per candidate: the probe scratch keeps its capacity across
    // the (often tens of thousands of) rederivation checks.
    struct RederiveRun {
      const RuleExec* rule;
      std::unique_ptr<VariantRun> run;
      std::vector<Element> env;
      std::vector<bool> bound;
    };
    std::vector<RederiveRun> runs;
    for (const RuleExec& rule : impl.engine.rules) {
      if (rule.is_fact || rule.head_pred != p || !rule.rederive.has_value()) {
        continue;
      }
      RederiveRun rr{&rule,
                     std::make_unique<VariantRun>(impl.engine, rule,
                                                  *rule.rederive, rs, impl.acc),
                     {},
                     {}};
      rr.run->set_find_first();
      runs.push_back(std::move(rr));
    }
    const std::size_t parity = rs.idb[p].arity();
    for (std::size_t k = 0; k < candidate_count[p]; ++k) {
      const Element* t = doomed_rows[p].data() + k * parity;
      bool rederived = false;
      for (RederiveRun& rr : runs) {
        const RuleExec& rule = *rr.rule;
        rr.env.assign(rule.slot_count, 0);
        rr.bound.assign(rule.slot_count, false);
        bool head_matches = true;
        for (std::size_t c = 0; c < rule.head.size(); ++c) {
          const SlotTerm& term = rule.head[c];
          if (term.is_const) {
            if (t[c] != term.value) {
              head_matches = false;
              break;
            }
            continue;
          }
          // Repeated head variables must agree with the candidate.
          if (rr.bound[term.slot] && rr.env[term.slot] != t[c]) {
            head_matches = false;
            break;
          }
          rr.env[term.slot] = t[c];
          rr.bound[term.slot] = true;
        }
        if (!head_matches) {
          continue;
        }
        rr.run->ResetFindFirst(rr.env);
        FMTK_RETURN_IF_ERROR(rr.run->Execute());
        if (rr.run->found()) {
          rederived = true;
          break;
        }
      }
      if (rederived) {
        reinsert.assign(t, t + parity);
        rs.idb[p].AddCopy(reinsert);
        ++impl.stats.rederived;
      }
    }
  }

  // Phase 3: propagate the reinsertions — new support can cascade to other
  // deleted candidates. Round 1's delta is the reinserted IDB suffix; the
  // EDB contributes nothing new.
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    rs.delta_begin[p] = pruned_size[p];
    rs.delta_end[p] = rs.idb[p].size();
  }
  for (std::size_t r2 = 0; r2 < rs.edb_delta_begin.size(); ++r2) {
    rs.edb_delta_begin[r2] = rs.edb_delta_end[r2] =
        impl.edb.relation(r2).size();
  }
  FMTK_RETURN_IF_ERROR(impl.RunInsertFixpoint());

  const std::size_t idb_after = impl.IdbTupleCount();
  impl.stats.idb_deleted = idb_before - idb_after;
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
