#include "datalog/compiled_engine.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "base/check.h"
#include "base/sorted_intersect.h"
#include "datalog/engine_internal.h"

namespace fmtk {

using internal_datalog::AtomRole;
using internal_datalog::EngineImpl;
using internal_datalog::JoinStep;
using internal_datalog::PosAction;
using internal_datalog::RuleExec;
using internal_datalog::RunState;
using internal_datalog::SlotTerm;
using internal_datalog::StatsAcc;
using internal_datalog::Variant;
using internal_datalog::VariantRun;

namespace {

std::uint64_t SaturatingPow(std::uint64_t base, std::size_t exp) {
  constexpr std::uint64_t kCap = 1000ULL * 1000ULL * 1000ULL * 1000ULL;
  std::uint64_t out = 1;
  for (std::size_t i = 0; i < exp; ++i) {
    if (base != 0 && out > kCap / base) {
      return kCap;
    }
    out *= base;
  }
  return out;
}

}  // namespace

namespace internal_datalog {

// ---- Compilation ---------------------------------------------------------

Status EngineImpl::Compile() {
  // The static analyzer is the checked front door; it subsumes
  // program->Validate() and the per-atom EDB checks the interpreter used
  // to do by hand, and contributes the SCC recursion classification that
  // explains the per-recursive-atom delta variants compiled below.
  DatalogAnalyzerOptions analyzer_options;
  analyzer_options.signature = &edb->signature();
  const DatalogAnalysis analysis = AnalyzeProgram(*program, analyzer_options);
  FMTK_RETURN_IF_ERROR(analysis.status());
  recursion_info = analysis.RecursionSummary();
  analyzer_warnings = analysis.diagnostics.MessagesFor(DiagSeverity::kWarning);
  strata_info = analysis.StratumSummary();
  stratum_count = std::max<std::size_t>(1, analysis.stratum_count);
  for (const std::string& name : program->IdbPredicates()) {
    idb_id.emplace(name, idb_names.size());
    idb_names.push_back(name);
    idb_arity.push_back(0);  // Filled from the first head below.
  }
  idb_stratum.assign(idb_names.size(), 0);
  for (const auto& [name, stratum] : analysis.stratum_of) {
    auto it = idb_id.find(name);
    if (it != idb_id.end()) {
      idb_stratum[it->second] = stratum;
    }
  }
  for (const DlRule& rule : program->rules()) {
    idb_arity[idb_id.at(rule.head.predicate)] = rule.head.terms.size();
  }
  probed_cols.resize(idb_names.size());
  edb_probed_cols.resize(edb->signature().relation_count());
  for (const DlRule& rule : program->rules()) {
    FMTK_RETURN_IF_ERROR(CompileRule(rule));
  }
  // Dedup + sort the per-predicate probe column sets.
  for (std::vector<std::size_t>& cols : probed_cols) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  }
  for (std::vector<std::size_t>& cols : edb_probed_cols) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  }
  return Status::OK();
}

Status EngineImpl::CompileRule(const DlRule& rule) {
  RuleExec exec;
  exec.head_pred = idb_id.at(rule.head.predicate);

  // Slots: one per distinct variable, first occurrence (body, then head)
  // wins. Head variables of non-fact rules always occur in the body
  // (range restriction), so only fact rules allocate slots from heads.
  std::unordered_map<std::string, int> slot_of;
  auto slot_for = [&slot_of](const std::string& var) {
    auto [it, inserted] =
        slot_of.emplace(var, static_cast<int>(slot_of.size()));
    (void)inserted;
    return it->second;
  };
  auto compile_terms = [&slot_for](const DlAtom& atom) {
    std::vector<SlotTerm> out;
    out.reserve(atom.terms.size());
    for (const DlTerm& t : atom.terms) {
      SlotTerm st;
      if (t.is_variable) {
        st.slot = slot_for(t.variable);
      } else {
        st.is_const = true;
        st.value = t.value;
      }
      out.push_back(st);
    }
    return out;
  };

  exec.stratum = idb_stratum[exec.head_pred];
  std::vector<std::vector<SlotTerm>> body_terms;
  std::vector<bool> body_is_idb;
  std::vector<std::size_t> body_pred;
  std::vector<bool> body_negated;
  // Positive same-stratum IDB positions: the only atoms whose extent grows
  // while the rule's stratum runs, hence the only delta choices. Positive
  // lower-stratum atoms and all negated atoms read completed stores.
  std::vector<std::size_t> delta_positions;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    const DlAtom& atom = rule.body[i];
    body_terms.push_back(compile_terms(atom));
    body_negated.push_back(atom.negated);
    auto it = idb_id.find(atom.predicate);
    if (it != idb_id.end()) {
      body_is_idb.push_back(true);
      body_pred.push_back(it->second);
      if (!atom.negated && idb_stratum[it->second] == exec.stratum) {
        delta_positions.push_back(i);
      }
      continue;
    }
    std::optional<std::size_t> rel =
        edb->signature().FindRelation(atom.predicate);
    if (!rel.has_value()) {
      return Status::SignatureMismatch(
          "EDB predicate " + atom.predicate +
          " is not a relation of the input structure");
    }
    if (edb->signature().relation(*rel).arity != atom.terms.size()) {
      return Status::SignatureMismatch("EDB predicate " + atom.predicate +
                                       " arity mismatch");
    }
    body_is_idb.push_back(false);
    body_pred.push_back(*rel);
  }
  exec.head = compile_terms(rule.head);
  exec.is_fact = rule.body.empty();
  exec.pure_edb = !exec.is_fact && delta_positions.empty();

  if (exec.is_fact) {
    std::set<int> seen;
    for (const SlotTerm& t : exec.head) {
      if (!t.is_const && seen.insert(t.slot).second) {
        exec.fact_slots.push_back(t.slot);
      }
    }
    exec.slot_count = slot_of.size();
    rules.push_back(std::move(exec));
    return Status::OK();
  }

  // Compiles one join-order variant. `delta_at` marks the delta body
  // position (nullopt = every atom reads its full role); `initial_bound`
  // pre-binds slots (the rederive plan binds head variables);
  // `incremental_roles` applies the old/full/delta split to EDB atoms too.
  auto compile_variant = [&](const std::optional<std::size_t>& delta_at,
                             const std::vector<bool>* initial_bound,
                             bool all_full, std::string tag) {
    Variant variant;
    std::vector<std::size_t> order = ChooseJoinOrder(
        body_terms, body_is_idb, body_pred, body_negated, delta_at,
        initial_bound);
    std::vector<bool> bound(slot_of.size(), false);
    if (initial_bound != nullptr) {
      for (std::size_t s = 0; s < initial_bound->size() && s < bound.size();
           ++s) {
        if ((*initial_bound)[s]) {
          bound[s] = true;
        }
      }
    }
    std::string desc = rule.ToString() + std::move(tag);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      // Probe columns must be bound before the atom is scanned: constants,
      // or slots bound by earlier steps. A repeated variable first bound by
      // an earlier column of this same atom still checks (kCheckSlot runs
      // after that column binds), but cannot drive an index probe.
      const std::vector<bool> bound_before = bound;
      JoinStep step;
      step.is_idb = body_is_idb[i];
      step.negated = body_negated[i];
      step.pred = body_pred[i];
      if (step.negated) {
        // A completed store: the whole EDB relation, or — for an IDB atom,
        // necessarily lower-stratum — the synced [0, delta_end) prefix,
        // which equals the full extent once that stratum closed. The step
        // probes by membership, so the role only picks the store.
        step.role = step.is_idb || incremental ? AtomRole::kFull
                                               : AtomRole::kEdb;
      } else if (all_full) {
        step.role = step.is_idb || incremental ? AtomRole::kFull
                                               : AtomRole::kEdb;
      } else if (!step.is_idb && !incremental) {
        step.role = AtomRole::kEdb;
      } else if (delta_at.has_value() && i == *delta_at) {
        step.role = AtomRole::kDelta;
      } else if (!delta_at.has_value() || i < *delta_at) {
        step.role = AtomRole::kFull;
      } else {
        step.role = AtomRole::kOld;
      }
      for (std::size_t c = 0; c < body_terms[i].size(); ++c) {
        const SlotTerm& t = body_terms[i][c];
        PosAction action;
        if (t.is_const) {
          action.kind = PosAction::kCheckConst;
          action.value = t.value;
          step.probe_cols.push_back(c);
        } else if (bound[t.slot]) {
          action.kind = PosAction::kCheckSlot;
          action.slot = t.slot;
          if (bound_before[t.slot]) {
            step.probe_cols.push_back(c);
          }
        } else {
          action.kind = PosAction::kBind;
          action.slot = t.slot;
          bound[t.slot] = true;
        }
        step.actions.push_back(action);
      }
      if (step.negated) {
        // Safety (FMTK111) plus the positives-first order guarantee every
        // column arrived bound; the membership probe reads the relation's
        // hash set directly, so no posting lists need syncing.
        for (const PosAction& a : step.actions) {
          FMTK_CHECK(a.kind != PosAction::kBind)
              << "unbound variable in negated atom";
        }
        step.probe_cols.clear();
      }
      if (step.is_idb) {
        std::vector<std::size_t>& cols = probed_cols[step.pred];
        cols.insert(cols.end(), step.probe_cols.begin(),
                    step.probe_cols.end());
      } else if (incremental) {
        // The EDB mutates between batches (relations are even replaced
        // after deletions), so its posting lists resolve per round through
        // RunState, exactly like the IDB's.
        std::vector<std::size_t>& cols = edb_probed_cols[step.pred];
        cols.insert(cols.end(), step.probe_cols.begin(),
                    step.probe_cols.end());
      } else {
        // Bind the EDB posting lists now; they are immutable for the
        // engine's lifetime, so probes skip the per-call sync + lock.
        step.edb_index.assign(step.actions.size(), nullptr);
        for (std::size_t c : step.probe_cols) {
          step.edb_index[c] = &edb->relation(step.pred).column_index(c);
        }
      }
      desc += k == 0 ? " " : ", ";
      desc += rule.body[i].ToString();
      switch (step.role) {
        case AtomRole::kEdb:
          break;
        case AtomRole::kFull:
          desc += ":full";
          break;
        case AtomRole::kOld:
          desc += ":old";
          break;
        case AtomRole::kDelta:
          desc += ":delta";
          break;
      }
      if (!step.probe_cols.empty()) {
        desc += ":probe(";
        for (std::size_t c = 0; c < step.probe_cols.size(); ++c) {
          desc += (c > 0 ? "," : "") + std::to_string(step.probe_cols[c]);
        }
        desc += ")";
      }
      variant.steps.push_back(std::move(step));
    }
    join_orders.push_back(std::move(desc));
    return variant;
  };

  // One variant per delta position: every IDB body position in batch mode
  // (the standard decomposition; pure-EDB rules get a single delta-free
  // variant and fire in round 1 only), every body position in incremental
  // mode — the EDB grows within an insert batch, so new EDB tuples drive
  // derivations through their own delta variants.
  std::vector<std::optional<std::size_t>> delta_choices;
  if (incremental) {
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      delta_choices.emplace_back(i);
    }
  } else if (delta_positions.empty()) {
    delta_choices.emplace_back(std::nullopt);
  } else {
    for (std::size_t p : delta_positions) {
      delta_choices.emplace_back(p);
    }
  }
  for (const std::optional<std::size_t>& delta_at : delta_choices) {
    const std::string tag =
        delta_at.has_value() ? " [d@" + std::to_string(*delta_at + 1) + "]"
                             : " [edb-only]";
    exec.variants.push_back(
        compile_variant(delta_at, nullptr, /*all_full=*/false, tag));
  }
  if (incremental) {
    // B/F check plan: head slots arrive pre-bound from the deletion
    // candidate, every atom reads the full store, and the join order
    // exploits the head bindings as probe columns.
    std::vector<bool> head_bound(slot_of.size(), false);
    for (const SlotTerm& t : exec.head) {
      if (!t.is_const) {
        head_bound[t.slot] = true;
      }
    }
    exec.rederive = compile_variant(std::nullopt, &head_bound,
                                    /*all_full=*/true, " [rederive]");
  }
  exec.slot_count = slot_of.size();
  rules.push_back(std::move(exec));
  return Status::OK();
}

// Greedy join order: the delta atom leads (semi-naive drives from the
// delta); afterwards the positive atom with the most bound positions wins,
// with smaller estimated extent as the tie-break (EDB sizes are exact; IDB
// extents are estimated as |domain|^arity since they can grow that far).
// Negated atoms always trail in source order: safety (FMTK111) puts every
// negated variable in some positive atom, so by then all are bound and
// each negated step is a single membership probe.
std::vector<std::size_t> EngineImpl::ChooseJoinOrder(
    const std::vector<std::vector<SlotTerm>>& body_terms,
    const std::vector<bool>& body_is_idb,
    const std::vector<std::size_t>& body_pred,
    const std::vector<bool>& body_negated,
    const std::optional<std::size_t>& delta_at,
    const std::vector<bool>* initial_bound) const {
  const std::size_t m = body_terms.size();
  std::vector<bool> used(m, false);
  std::size_t positives = m;
  for (std::size_t i = 0; i < m; ++i) {
    if (body_negated[i]) {
      used[i] = true;
      --positives;
    }
  }
  std::vector<bool> bound;  // By slot; sized lazily below.
  for (const std::vector<SlotTerm>& terms : body_terms) {
    for (const SlotTerm& t : terms) {
      if (!t.is_const && static_cast<std::size_t>(t.slot) >= bound.size()) {
        bound.resize(t.slot + 1, false);
      }
    }
  }
  if (initial_bound != nullptr) {
    for (std::size_t s = 0; s < initial_bound->size(); ++s) {
      if ((*initial_bound)[s]) {
        if (s >= bound.size()) {
          bound.resize(s + 1, false);
        }
        bound[s] = true;
      }
    }
  }
  std::vector<std::size_t> order;
  order.reserve(m);
  auto take = [&](std::size_t i) {
    used[i] = true;
    order.push_back(i);
    for (const SlotTerm& t : body_terms[i]) {
      if (!t.is_const) {
        bound[t.slot] = true;
      }
    }
  };
  if (delta_at.has_value()) {
    take(*delta_at);
  }
  while (order.size() < positives) {
    std::size_t best = m;
    std::size_t best_bound = 0;
    std::uint64_t best_size = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i]) {
        continue;
      }
      std::size_t bound_count = 0;
      for (const SlotTerm& t : body_terms[i]) {
        if (t.is_const || bound[t.slot]) {
          ++bound_count;
        }
      }
      const std::uint64_t size =
          body_is_idb[i]
              ? SaturatingPow(edb->domain_size(), body_terms[i].size())
              : edb->relation(body_pred[i]).size();
      if (best == m || bound_count > best_bound ||
          (bound_count == best_bound && size < best_size)) {
        best = i;
        best_bound = bound_count;
        best_size = size;
      }
    }
    take(best);
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (body_negated[i]) {
      order.push_back(i);
    }
  }
  return order;
}

Status SeedFacts(const EngineImpl& impl, std::vector<Relation>& idb) {
  const std::size_t n = impl.edb->domain_size();
  for (const RuleExec& rule : impl.rules) {
    if (!rule.is_fact) {
      continue;
    }
    std::vector<Element> env(rule.slot_count, 0);
    Tuple out(rule.head.size(), 0);
    // Odometer over the distinct head-variable slots.
    std::vector<Element> counters(rule.fact_slots.size(), 0);
    bool exhausted = n == 0 && !rule.fact_slots.empty();
    while (!exhausted) {
      for (std::size_t i = 0; i < rule.fact_slots.size(); ++i) {
        env[rule.fact_slots[i]] = counters[i];
      }
      for (std::size_t c = 0; c < rule.head.size(); ++c) {
        const SlotTerm& t = rule.head[c];
        if (t.is_const) {
          if (t.value >= n) {
            return Status::InvalidArgument(
                "constant " + std::to_string(t.value) +
                " outside the structure's domain");
          }
          out[c] = t.value;
        } else {
          out[c] = env[t.slot];
        }
      }
      idb[rule.head_pred].Add(out);
      // Advance the odometer (most significant digit first, matching the
      // interpreter's recursion order).
      exhausted = true;
      for (std::size_t i = counters.size(); i-- > 0;) {
        if (++counters[i] < n) {
          exhausted = false;
          break;
        }
        counters[i] = 0;
      }
      if (counters.empty()) {
        break;  // Variable-free fact: exactly one instantiation.
      }
    }
  }
  return Status::OK();
}

// ---- Join execution ------------------------------------------------------

Status VariantRun::Execute() { return Step<false>(0); }

Status VariantRun::ExecuteCheck(const std::vector<Element>& env,
                                CheckHooks& hooks) {
  env_.assign(env.begin(), env.end());
  hooks_ = &hooks;
  found_ = false;
  return Step<true>(0);
}

template <bool kCheck>
Status VariantRun::Step(std::size_t depth) {
  if (found_) {
    return Status::OK();
  }
  if (depth == variant_.steps.size()) {
    if constexpr (kCheck) {
      found_ = hooks_->OnInstance();
      return Status::OK();
    } else {
      return Derive();
    }
  }
  const JoinStep& s = variant_.steps[depth];
  ++acc_.atom_visits;
  // Resolve the store, the index range, and the per-column index array the
  // step reads, by role and mode. In batch mode EDB steps read the whole
  // immutable relation through the indexes pre-bound at compile time; in
  // incremental mode both EDB and IDB steps read prefix ranges through the
  // per-round pointers in RunState, and in deletion mode kDelta redirects
  // to the side stores of deleted tuples.
  std::size_t begin = 0;
  std::size_t end = 0;
  const Relation* rel = nullptr;
  const std::vector<const Relation::ColumnIndex*>* idx = nullptr;
  if (s.is_idb) {
    if (rs_.deletion_mode && s.role == AtomRole::kDelta) {
      rel = &(*rs_.del_idb)[s.pred];
      begin = rs_.del_idb_begin[s.pred];
      end = rs_.del_idb_end[s.pred];
      idx = &rs_.del_idb_index[s.pred];
    } else {
      rel = &rs_.idb[s.pred];
      idx = &rs_.idb_index[s.pred];
      switch (s.role) {
        case AtomRole::kFull:
          end = rs_.delta_end[s.pred];
          break;
        case AtomRole::kOld:
          end = rs_.delta_begin[s.pred];
          break;
        case AtomRole::kDelta:
          begin = rs_.delta_begin[s.pred];
          end = rs_.delta_end[s.pred];
          break;
        case AtomRole::kEdb:
          FMTK_CHECK(false) << "EDB role on IDB step";
      }
    }
  } else {
    rel = &impl_.edb->relation(s.pred);
    switch (s.role) {
      case AtomRole::kEdb:
        end = rel->size();
        idx = &s.edb_index;
        break;
      case AtomRole::kFull:
        end = rs_.edb_delta_end[s.pred];
        idx = &rs_.edb_index[s.pred];
        break;
      case AtomRole::kOld:
        end = rs_.edb_delta_begin[s.pred];
        idx = &rs_.edb_index[s.pred];
        break;
      case AtomRole::kDelta:
        if (rs_.deletion_mode) {
          rel = &(*rs_.del_edb)[s.pred];
          begin = rs_.del_edb_begin[s.pred];
          end = rs_.del_edb_end[s.pred];
          idx = &rs_.del_edb_index[s.pred];
        } else {
          begin = rs_.edb_delta_begin[s.pred];
          end = rs_.edb_delta_end[s.pred];
          idx = &rs_.edb_index[s.pred];
        }
        break;
    }
  }
  if (s.negated) {
    // Stratified negated atom: every column is bound, and `rel` is exactly
    // the visible extent (the EDB is immutable; a negated IDB atom is
    // strictly lower-stratum and frozen — derivations in flight only ever
    // land in the current stratum's predicates). One hash probe decides
    // the step: it succeeds iff the tuple is absent.
    probe_.clear();
    for (const PosAction& a : s.actions) {
      probe_.push_back(a.kind == PosAction::kCheckConst ? a.value
                                                        : env_[a.slot]);
    }
    ++acc_.index_probes;
    if (rel->Contains(probe_)) {
      return Status::OK();
    }
    return Step<kCheck>(depth + 1);
  }
  if constexpr (kCheck) {
    // A check run reads whole stores that stay put while it runs, so a
    // step with every column bound is one membership probe.
    if (s.probe_cols.size() == s.actions.size()) {
      probe_.clear();
      for (const PosAction& a : s.actions) {
        probe_.push_back(a.kind == PosAction::kCheckConst ? a.value
                                                          : env_[a.slot]);
      }
      ++acc_.index_probes;
      const std::size_t position = rel->Position(probe_.data());
      if (position == Relation::kNoPosition ||
          (s.is_idb && !hooks_->AcceptIdb(depth, s.pred, position))) {
        return Status::OK();
      }
      return Step<kCheck>(depth + 1);
    }
  }
  if (begin >= end) {
    return Status::OK();
  }
  // Probe the bound columns' posting lists; fall back to a range scan
  // when no column is bound. The posting lists consulted here are frozen
  // for the round (EDB relations are immutable or synced at round starts,
  // IDB indexes are synced only at round starts), so iterating them is
  // safe even though the recursion below may Add into the same relation.
  // With one bound column the list is walked directly; with several, the
  // lists are intersected (galloping/SIMD kernel) so only tuples matching
  // every bound column reach TryTuple.
  const std::vector<std::uint32_t>* best_list = nullptr;
  Relation::ColumnIndex::View view;
  bool single_view = false;
  if (!s.probe_cols.empty()) {
    ++acc_.index_probes;
    auto view_of = [&](std::size_t c) {
      const PosAction& a = s.actions[c];
      const Element value =
          a.kind == PosAction::kCheckConst ? a.value : env_[a.slot];
      return (*idx)[c]->Find(value);
    };
    if (s.probe_cols.size() == 1) {
      // Single bound column — walk its view directly, no staging.
      view = view_of(s.probe_cols[0]);
      if (view.empty()) {
        // No tuple with the bound value at this column anywhere in the
        // synced prefix — and the ranges below never exceed it.
        return Status::OK();
      }
      single_view = true;
    } else {
      // Stage each bound column as one contiguous sorted span: CSR slices
      // and tail vectors pass through as-is; a view with both parts is
      // materialized (CSR row ids all precede tail row ids, so the
      // concatenation stays sorted).
      spans_.clear();
      std::size_t mats = 0;
      if (mat_.size() < s.probe_cols.size()) {
        mat_.resize(s.probe_cols.size());
      }
      for (std::size_t c : s.probe_cols) {
        const Relation::ColumnIndex::View v = view_of(c);
        if (v.empty()) {
          return Status::OK();
        }
        const bool has_tail = v.tail != nullptr && !v.tail->empty();
        if (v.bulk_size != 0 && has_tail) {
          std::vector<std::uint32_t>& m = mat_[mats++];
          m.clear();
          m.reserve(v.size());
          m.insert(m.end(), v.bulk, v.bulk + v.bulk_size);
          m.insert(m.end(), v.tail->begin(), v.tail->end());
          spans_.emplace_back(m.data(), m.size());
        } else if (v.bulk_size != 0) {
          spans_.emplace_back(v.bulk, v.bulk_size);
        } else {
          spans_.emplace_back(v.tail->data(), v.tail->size());
        }
      }
      // Fold the spans smallest-first into this depth's scratch buffer.
      // The scratch is per-depth (iterated while deeper steps recurse);
      // tmp_ is transient within the fold, so one shared buffer works.
      std::sort(spans_.begin(), spans_.end(),
                [](const std::pair<const std::uint32_t*, std::size_t>& a,
                   const std::pair<const std::uint32_t*, std::size_t>& b) {
                  return a.second < b.second;
                });
      std::vector<std::uint32_t>& acc = isect_[depth];
      acc.resize(std::min(spans_[0].second, spans_[1].second));
      acc.resize(IntersectSorted(spans_[0].first, spans_[0].second,
                                 spans_[1].first, spans_[1].second,
                                 acc.data()));
      for (std::size_t k = 2; k < spans_.size() && !acc.empty(); ++k) {
        tmp_.resize(std::min(acc.size(), spans_[k].second));
        tmp_.resize(IntersectSorted(acc.data(), acc.size(), spans_[k].first,
                                    spans_[k].second, tmp_.data()));
        acc.swap(tmp_);
      }
      if (acc.empty()) {
        return Status::OK();
      }
      best_list = &acc;
    }
  }
  if (single_view) {
    const std::uint32_t* b = view.bulk;
    const std::uint32_t* b_end = view.bulk + view.bulk_size;
    b = std::lower_bound(b, b_end, begin);
    for (; b != b_end && *b < end; ++b) {
      FMTK_RETURN_IF_ERROR(TryTuple<kCheck>(depth, s, *rel, *b));
      if (found_) {
        return Status::OK();
      }
    }
    if (view.tail != nullptr) {
      auto it = std::lower_bound(view.tail->begin(), view.tail->end(), begin);
      for (; it != view.tail->end() && *it < end; ++it) {
        FMTK_RETURN_IF_ERROR(TryTuple<kCheck>(depth, s, *rel, *it));
        if (found_) {
          return Status::OK();
        }
      }
    }
  } else if (best_list != nullptr) {
    auto it = std::lower_bound(best_list->begin(), best_list->end(), begin);
    for (; it != best_list->end() && *it < end; ++it) {
      FMTK_RETURN_IF_ERROR(TryTuple<kCheck>(depth, s, *rel, *it));
      if (found_) {
        return Status::OK();
      }
    }
  } else {
    // Fixed [begin, end) prefix by index: the recursion can Add into this
    // very relation (head predicate in its own body), reallocating the
    // flat row store — so re-fetch each row by index, never hold pointers.
    for (std::size_t i = begin; i < end; ++i) {
      FMTK_RETURN_IF_ERROR(TryTuple<kCheck>(depth, s, *rel, i));
      if (found_) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

template <bool kCheck>
Status VariantRun::TryTuple(std::size_t depth, const JoinStep& s,
                            const Relation& rel, std::size_t tuple_index) {
  ++acc_.tuples_scanned;
  {
    // Scope the pointer: Add() during the recursion may reallocate the
    // flat tuple store, so it must not be held across Step().
    const Element* t = rel.TupleData(tuple_index);
    for (std::size_t c = 0; c < s.actions.size(); ++c) {
      const PosAction& a = s.actions[c];
      switch (a.kind) {
        case PosAction::kCheckConst:
          if (t[c] != a.value) {
            return Status::OK();
          }
          break;
        case PosAction::kCheckSlot:
          if (t[c] != env_[a.slot]) {
            return Status::OK();
          }
          break;
        case PosAction::kBind:
          env_[a.slot] = t[c];
          break;
      }
    }
    if constexpr (kCheck) {
      if (s.is_idb && !hooks_->AcceptIdb(depth, s.pred, tuple_index)) {
        return Status::OK();
      }
    }
  }
  return Step<kCheck>(depth + 1);
}

Status VariantRun::Derive() {
  ++acc_.tuples_derived;
  // Build the head into a reused scratch: most derivations in a recursive
  // fixpoint are duplicates, and Add() only copies on actual insert, so
  // the reject path allocates nothing.
  out_.clear();
  for (const SlotTerm& t : rule_.head) {
    if (t.is_const) {
      if (t.value >= impl_.edb->domain_size()) {
        return Status::InvalidArgument("constant " + std::to_string(t.value) +
                                       " outside the structure's domain");
      }
      out_.push_back(t.value);
    } else {
      out_.push_back(env_[t.slot]);
    }
  }
  // The B/F forward pass collects deletion candidates in a side store;
  // everything else inserts straight into the IDB.
  Relation& target = rs_.deletion_mode ? (*rs_.candidates)[rule_.head_pred]
                                       : rs_.idb[rule_.head_pred];
  if (target.Add(out_)) {
    changed_ = true;
    ++tuples_new_;
  }
  return Status::OK();
}

}  // namespace internal_datalog

Result<CompiledDatalogEngine> CompiledDatalogEngine::Create(
    const DatalogProgram& program, const Structure& edb) {
  auto impl = std::make_shared<EngineImpl>();
  impl->program = &program;
  impl->edb = &edb;
  FMTK_RETURN_IF_ERROR(impl->Compile());
  return CompiledDatalogEngine(std::move(impl));
}

const std::vector<std::string>& CompiledDatalogEngine::join_orders() const {
  return impl_->join_orders;
}

Result<std::map<std::string, Relation>> CompiledDatalogEngine::Evaluate(
    DatalogStats* stats) {
  EngineImpl& impl = *impl_;
  RunState rs;
  rs.idb.reserve(impl.idb_names.size());
  for (std::size_t arity : impl.idb_arity) {
    rs.idb.emplace_back(arity);
  }
  rs.delta_begin.assign(rs.idb.size(), 0);
  rs.delta_end.assign(rs.idb.size(), 0);
  rs.idb_index.resize(rs.idb.size());
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    rs.idb_index[p].assign(rs.idb[p].arity(), nullptr);
  }

  // Seed fact schemas: head variables range over the whole domain, exactly
  // like the interpreter (not counted as derivations there either).
  FMTK_RETURN_IF_ERROR(internal_datalog::SeedFacts(impl, rs.idb));

  StatsAcc acc;
  std::uint64_t rule_applications = 0;
  std::uint64_t tuples_new = 0;
  std::size_t iterations = 0;
  // Stratum-by-stratum schedule: each stratum runs its own semi-naive
  // round loop over the rules whose head lives there, so by the time a
  // stratum starts, everything below it — everything its rules may read
  // through negation — is complete. Negation-free programs have a single
  // stratum and behave exactly as before.
  for (std::size_t stratum = 0; stratum < impl.stratum_count; ++stratum) {
    bool first_round = true;
    bool changed = true;
    while (changed) {
      ++iterations;
      changed = false;
      // Promote last round's additions to this round's delta, then sync
      // the generation-tagged indexes so every probed column covers
      // exactly [0, delta_end) — an O(new tuples) append, not a rebuild.
      // In a stratum's first round the delta of its own predicates is
      // everything seeded so far (delta_begin rewinds to 0: fact-schema
      // seeds of a higher stratum must drive its rules when it starts).
      for (std::size_t p = 0; p < rs.idb.size(); ++p) {
        rs.delta_begin[p] =
            first_round && impl.idb_stratum[p] == stratum ? 0
                                                          : rs.delta_end[p];
        rs.delta_end[p] = rs.idb[p].size();
        for (std::size_t c : impl.probed_cols[p]) {
          rs.idb_index[p][c] = &rs.idb[p].column_index(c);
        }
      }
      for (const RuleExec& rule : impl.rules) {
        if (rule.is_fact || rule.stratum != stratum ||
            (rule.pure_edb && !first_round)) {
          // Facts are seeded; other strata have their own round loops;
          // pure-EDB rules read nothing that changes within the stratum.
          continue;
        }
        for (const Variant& variant : rule.variants) {
          ++rule_applications;
          VariantRun run(impl, rule, variant, rs, acc);
          FMTK_RETURN_IF_ERROR(run.Execute());
          changed = changed || run.changed();
          tuples_new += run.tuples_new();
        }
      }
      first_round = false;
    }
  }

  if (stats != nullptr) {
    stats->iterations += iterations;
    stats->rule_applications += rule_applications;
    stats->atom_visits += acc.atom_visits;
    stats->tuples_derived += acc.tuples_derived;
    stats->tuples_new += tuples_new;
    stats->index_probes += acc.index_probes;
    stats->tuples_scanned += acc.tuples_scanned;
    stats->join_orders = impl.join_orders;
    stats->recursion_info = impl.recursion_info;
    stats->analyzer_warnings = impl.analyzer_warnings;
    stats->strata = impl.strata_info;
  }

  std::map<std::string, Relation> out;
  for (std::size_t p = 0; p < rs.idb.size(); ++p) {
    out.emplace(impl.idb_names[p], std::move(rs.idb[p]));
  }
  return out;
}

}  // namespace fmtk
