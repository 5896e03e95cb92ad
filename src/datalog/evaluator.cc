#include "datalog/evaluator.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "base/check.h"
#include "datalog/compiled_engine.h"

namespace fmtk {

std::string DatalogStats::ToString() const {
  return "iterations=" + std::to_string(iterations) +
         " rule_applications=" + std::to_string(rule_applications) +
         " atom_visits=" + std::to_string(atom_visits) +
         " tuples_derived=" + std::to_string(tuples_derived) +
         " tuples_new=" + std::to_string(tuples_new) +
         " index_probes=" + std::to_string(index_probes) +
         " tuples_scanned=" + std::to_string(tuples_scanned);
}

namespace {

using Bindings = std::unordered_map<std::string, Element>;

// Matches the row `tuple` (one element per term) against `atom`'s terms
// under `bindings`; extends them on success (returns the variables newly
// bound so the caller can undo).
bool MatchAtom(const DlAtom& atom, const Element* tuple, Bindings& bindings,
               std::vector<std::string>& newly_bound) {
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const DlTerm& t = atom.terms[i];
    if (!t.is_variable) {
      if (t.value != tuple[i]) {
        return false;
      }
      continue;
    }
    auto it = bindings.find(t.variable);
    if (it != bindings.end()) {
      if (it->second != tuple[i]) {
        return false;
      }
      continue;
    }
    bindings.emplace(t.variable, tuple[i]);
    newly_bound.push_back(t.variable);
  }
  return true;
}

void Unbind(Bindings& bindings, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    bindings.erase(name);
  }
}

// The naive interpreter: every round re-runs every rule over the full
// relations until a round adds nothing.
class NaiveEngine {
 public:
  NaiveEngine(const DatalogProgram& program, const Structure& edb,
              DatalogStats* stats)
      : program_(program),
        edb_(edb),
        stats_(stats != nullptr ? stats : &unreported_) {}

  Result<std::map<std::string, Relation>> Run() {
    // The static analyzer is the checked front door: range restriction and
    // arity consistency (FMTK101/102, InvalidArgument), EDB mismatches
    // (FMTK103/104, SignatureMismatch) and IDB/EDB collisions (FMTK105,
    // InvalidArgument) all reject here, with warnings surfaced via stats.
    DatalogAnalyzerOptions analyzer_options;
    analyzer_options.signature = &edb_.signature();
    const DatalogAnalysis analysis = AnalyzeProgram(program_, analyzer_options);
    FMTK_RETURN_IF_ERROR(analysis.status());
    stats_->recursion_info = analysis.RecursionSummary();
    stats_->analyzer_warnings =
        analysis.diagnostics.MessagesFor(DiagSeverity::kWarning);
    stats_->strata = analysis.StratumSummary();
    // The analyzer vetted the program against the EDB signature; all that
    // is left is creating the IDB relations and seeding the facts.
    for (const DlRule& rule : program_.rules()) {
      idb_.emplace(rule.head.predicate, Relation(rule.head.terms.size()));
    }
    FMTK_RETURN_IF_ERROR(SeedFactSchemas());
    // Per rule: its stratum and a body order putting positive atoms first
    // (original order) and negated atoms last — FMTK111 guarantees the
    // positives bind every variable a negated atom mentions.
    const std::vector<DlRule>& rules = program_.rules();
    std::vector<RuleInfo> infos(rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      infos[i].stratum = analysis.stratum_of.at(rules[i].head.predicate);
      std::vector<std::size_t>& order = infos[i].order;
      order.resize(rules[i].body.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_partition(order.begin(), order.end(), [&](std::size_t j) {
        return !rules[i].body[j].negated;
      });
    }
    // Stratum-by-stratum: each stratum runs its own fixpoint; relations of
    // lower strata are complete when a higher stratum starts, so negated
    // atoms are sound absence checks. Negation-free programs have one
    // stratum and behave exactly as before.
    for (std::size_t stratum = 0; stratum < analysis.stratum_count;
         ++stratum) {
      bool changed = true;
      while (changed) {
        ++stats_->iterations;
        changed = false;
        for (std::size_t i = 0; i < rules.size(); ++i) {
          if (rules[i].body.empty() || infos[i].stratum != stratum) {
            continue;  // Facts were seeded; other strata run in their turn.
          }
          ++stats_->rule_applications;
          Bindings bindings;
          FMTK_RETURN_IF_ERROR(
              JoinBody(rules[i], infos[i], 0, bindings, changed));
        }
      }
    }
    return idb_;
  }

 private:
  struct RuleInfo {
    /// Body positions, positive atoms first (original order), negated last.
    std::vector<std::size_t> order;
    std::size_t stratum = 0;
  };

  Status SeedFactSchemas() {
    for (const DlRule& rule : program_.rules()) {
      if (!rule.body.empty()) {
        continue;
      }
      // Head variables range over the whole domain.
      std::vector<std::string> vars;
      std::set<std::string> seen;
      for (const DlTerm& t : rule.head.terms) {
        if (t.is_variable && seen.insert(t.variable).second) {
          vars.push_back(t.variable);
        }
      }
      Bindings bindings;
      FMTK_RETURN_IF_ERROR(
          EnumerateFacts(rule, vars, 0, bindings));
    }
    return Status::OK();
  }

  Status EnumerateFacts(const DlRule& rule,
                        const std::vector<std::string>& vars,
                        std::size_t index, Bindings& bindings) {
    if (index == vars.size()) {
      FMTK_ASSIGN_OR_RETURN(Tuple head, InstantiateHead(rule.head, bindings));
      idb_.at(rule.head.predicate).Add(head);
      return Status::OK();
    }
    for (Element d = 0; d < edb_.domain_size(); ++d) {
      bindings[vars[index]] = d;
      FMTK_RETURN_IF_ERROR(EnumerateFacts(rule, vars, index + 1, bindings));
    }
    bindings.erase(vars[index]);
    return Status::OK();
  }

  Result<Tuple> InstantiateHead(const DlAtom& head,
                                const Bindings& bindings) const {
    Tuple out;
    out.reserve(head.terms.size());
    for (const DlTerm& t : head.terms) {
      Element value;
      if (t.is_variable) {
        auto it = bindings.find(t.variable);
        FMTK_CHECK(it != bindings.end())
            << "unbound head variable " << t.variable
            << " (program validation should have caught this)";
        value = it->second;
      } else {
        value = t.value;
      }
      if (value >= edb_.domain_size()) {
        return Status::InvalidArgument(
            "constant " + std::to_string(value) +
            " outside the structure's domain");
      }
      out.push_back(value);
    }
    return out;
  }

  // The relation a body atom scans: the current IDB relation or the EDB's.
  const Relation& RelationFor(const DlAtom& atom) const {
    auto it = idb_.find(atom.predicate);
    return it != idb_.end()
               ? it->second
               : edb_.relation(*edb_.signature().FindRelation(atom.predicate));
  }

  Status JoinBody(const DlRule& rule, const RuleInfo& info, std::size_t index,
                  Bindings& bindings, bool& changed) {
    if (index == info.order.size()) {
      ++stats_->tuples_derived;
      FMTK_ASSIGN_OR_RETURN(Tuple head, InstantiateHead(rule.head, bindings));
      if (idb_.at(rule.head.predicate).Add(head)) {
        changed = true;
        ++stats_->tuples_new;
      }
      return Status::OK();
    }
    const DlAtom& atom = rule.body[info.order[index]];
    if (atom.negated) {
      // Absence check against the completed relation (a strictly lower
      // stratum, or the EDB). Every variable is bound: positive atoms come
      // first in info.order and FMTK111 vetted coverage. An out-of-domain
      // constant can never be contained, so the check degenerates to true.
      Tuple probe;
      probe.reserve(atom.terms.size());
      for (const DlTerm& t : atom.terms) {
        if (t.is_variable) {
          auto it = bindings.find(t.variable);
          FMTK_CHECK(it != bindings.end())
              << "unbound variable " << t.variable << " in negated atom "
              << atom.ToString()
              << " (program validation should have caught this)";
          probe.push_back(it->second);
        } else {
          probe.push_back(t.value);
        }
      }
      ++stats_->atom_visits;
      if (!RelationFor(atom).Contains(probe)) {
        FMTK_RETURN_IF_ERROR(
            JoinBody(rule, info, index + 1, bindings, changed));
      }
      return Status::OK();
    }
    const Relation& relation = RelationFor(atom);
    // The recursive call can derive into this very relation when the rule's
    // head predicate also appears in its body (e.g. naive TC), reallocating
    // the row store — so walk a fixed prefix by index and re-fetch the row
    // each step instead of holding a pointer across the recursion.
    const std::size_t count = relation.size();
    ++stats_->atom_visits;
    stats_->tuples_scanned += count;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::string> newly_bound;
      if (MatchAtom(atom, relation.TupleData(i), bindings, newly_bound)) {
        FMTK_RETURN_IF_ERROR(
            JoinBody(rule, info, index + 1, bindings, changed));
      }
      Unbind(bindings, newly_bound);
    }
    return Status::OK();
  }

  const DatalogProgram& program_;
  const Structure& edb_;
  DatalogStats unreported_;  // The counters when the caller wants none.
  DatalogStats* stats_;
  std::map<std::string, Relation> idb_;
};

}  // namespace

Result<std::map<std::string, Relation>> EvaluateDatalog(
    const DatalogProgram& program, const Structure& edb,
    DatalogStrategy strategy, DatalogStats* stats) {
  if (strategy == DatalogStrategy::kSemiNaive) {
    FMTK_ASSIGN_OR_RETURN(CompiledDatalogEngine engine,
                          CompiledDatalogEngine::Create(program, edb));
    return engine.Evaluate(stats);
  }
  NaiveEngine engine(program, edb, stats);
  return engine.Run();
}

}  // namespace fmtk
