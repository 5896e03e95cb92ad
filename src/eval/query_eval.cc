#include "eval/query_eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "eval/compiled_eval.h"
#include "logic/analysis.h"

namespace fmtk {

namespace {

// An intermediate result: a set of assignments to `vars` (sorted by name),
// stored as rows aligned with `vars`.
struct Table {
  std::vector<std::string> vars;
  std::vector<Tuple> rows;
};

using RowSet = std::unordered_set<Tuple, VectorHash<Element>>;

void DedupRows(Table& t) {
  RowSet seen;
  std::vector<Tuple> unique;
  unique.reserve(t.rows.size());
  for (Tuple& row : t.rows) {
    if (seen.insert(row).second) {
      unique.push_back(std::move(row));
    }
  }
  t.rows = std::move(unique);
}

// All |domain|^k tuples in odometer order (last column fastest), invoked
// as fn(tuple) until fn returns false.
template <typename Fn>
void ForEachDomainTuple(std::size_t domain, std::size_t k, const Fn& fn) {
  Tuple t(k, 0);
  if (k == 0) {
    fn(t);
    return;
  }
  if (domain == 0) {
    return;
  }
  while (true) {
    if (!fn(t)) {
      return;
    }
    std::size_t pos = k;
    while (pos > 0) {
      --pos;
      if (t[pos] + 1 < domain) {
        ++t[pos];
        break;
      }
      t[pos] = 0;
      if (pos == 0) {
        return;
      }
    }
  }
}

// Extends `t` so its variable set becomes exactly `target_vars` (a sorted
// superset of t.vars): missing columns range over the full domain.
Table ExtendTo(const Table& t, const std::vector<std::string>& target_vars,
               std::size_t domain) {
  if (t.vars == target_vars) {
    return t;
  }
  // One hash map over t.vars instead of a std::find per target variable.
  std::unordered_map<std::string, std::size_t> source_pos;
  source_pos.reserve(t.vars.size());
  for (std::size_t i = 0; i < t.vars.size(); ++i) {
    source_pos.emplace(t.vars[i], i);
  }
  // (position in target, position in t.vars) for shared variables, plus the
  // target positions to fill from the domain.
  std::vector<std::pair<std::size_t, std::size_t>> old_pos;
  std::vector<std::size_t> new_pos;
  for (std::size_t i = 0; i < target_vars.size(); ++i) {
    auto it = source_pos.find(target_vars[i]);
    if (it != source_pos.end()) {
      old_pos.emplace_back(i, it->second);
    } else {
      new_pos.push_back(i);
    }
  }
  FMTK_CHECK(old_pos.size() == t.vars.size())
      << "target variable list must contain the table's variables";
  Table out;
  out.vars = target_vars;
  for (const Tuple& row : t.rows) {
    ForEachDomainTuple(domain, new_pos.size(), [&](const Tuple& extra) {
      Tuple extended(target_vars.size(), 0);
      for (const auto& [target, source] : old_pos) {
        extended[target] = row[source];
      }
      for (std::size_t i = 0; i < new_pos.size(); ++i) {
        extended[new_pos[i]] = extra[i];
      }
      out.rows.push_back(std::move(extended));
      return true;
    });
  }
  return out;
}

std::vector<std::string> MergedVars(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> merged;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

// Natural (hash) join of two tables on their shared variables.
Table Join(const Table& a, const Table& b) {
  std::vector<std::string> shared;
  std::set_intersection(a.vars.begin(), a.vars.end(), b.vars.begin(),
                        b.vars.end(), std::back_inserter(shared));
  std::vector<std::string> merged = MergedVars(a.vars, b.vars);

  auto positions_of = [](const std::vector<std::string>& vars,
                         const std::vector<std::string>& subset) {
    std::vector<std::size_t> pos;
    pos.reserve(subset.size());
    for (const std::string& v : subset) {
      pos.push_back(static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), v) - vars.begin()));
    }
    return pos;
  };
  const std::vector<std::size_t> a_shared = positions_of(a.vars, shared);
  const std::vector<std::size_t> b_shared = positions_of(b.vars, shared);
  const std::vector<std::size_t> a_in_merged = positions_of(merged, a.vars);
  const std::vector<std::size_t> b_in_merged = positions_of(merged, b.vars);

  // Build on the smaller side.
  const bool build_a = a.rows.size() <= b.rows.size();
  const Table& build = build_a ? a : b;
  const Table& probe = build_a ? b : a;
  const std::vector<std::size_t>& build_key = build_a ? a_shared : b_shared;
  const std::vector<std::size_t>& probe_key = build_a ? b_shared : a_shared;
  const std::vector<std::size_t>& build_out =
      build_a ? a_in_merged : b_in_merged;
  const std::vector<std::size_t>& probe_out =
      build_a ? b_in_merged : a_in_merged;

  std::unordered_map<Tuple, std::vector<const Tuple*>, VectorHash<Element>>
      index;
  for (const Tuple& row : build.rows) {
    Tuple key;
    key.reserve(build_key.size());
    for (std::size_t p : build_key) {
      key.push_back(row[p]);
    }
    index[std::move(key)].push_back(&row);
  }

  Table out;
  out.vars = std::move(merged);
  for (const Tuple& row : probe.rows) {
    Tuple key;
    key.reserve(probe_key.size());
    for (std::size_t p : probe_key) {
      key.push_back(row[p]);
    }
    auto it = index.find(key);
    if (it == index.end()) {
      continue;
    }
    for (const Tuple* brow : it->second) {
      Tuple merged_row(out.vars.size(), 0);
      for (std::size_t i = 0; i < build_out.size(); ++i) {
        merged_row[build_out[i]] = (*brow)[i];
      }
      for (std::size_t i = 0; i < probe_out.size(); ++i) {
        merged_row[probe_out[i]] = row[i];
      }
      out.rows.push_back(std::move(merged_row));
    }
  }
  DedupRows(out);
  return out;
}

// Complement of `t` over domain^|vars|.
Table Complement(const Table& t, std::size_t domain) {
  RowSet present(t.rows.begin(), t.rows.end());
  Table out;
  out.vars = t.vars;
  ForEachDomainTuple(domain, t.vars.size(), [&](const Tuple& row) {
    if (present.find(row) == present.end()) {
      out.rows.push_back(row);
    }
    return true;
  });
  return out;
}

class BottomUpEvaluator {
 public:
  explicit BottomUpEvaluator(const Structure& s) : s_(s) {}

  Result<Table> Eval(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kTrue: {
        Table t;
        t.rows.push_back({});
        return t;
      }
      case FormulaKind::kFalse:
        return Table{};
      case FormulaKind::kAtom:
        return EvalAtom(f);
      case FormulaKind::kEqual:
        return EvalEqual(f);
      case FormulaKind::kNot: {
        FMTK_ASSIGN_OR_RETURN(Table t, Eval(f.child(0)));
        return Complement(t, s_.domain_size());
      }
      case FormulaKind::kAnd: {
        Table acc;
        acc.rows.push_back({});
        for (const Formula& c : f.children()) {
          FMTK_ASSIGN_OR_RETURN(Table t, Eval(c));
          acc = Join(acc, t);
          if (acc.rows.empty() && acc.vars == FreeVarList(f)) {
            break;
          }
        }
        return acc;
      }
      case FormulaKind::kOr: {
        std::vector<std::string> all_vars;
        for (const Formula& c : f.children()) {
          all_vars = MergedVars(all_vars, FreeVarList(c));
        }
        Table acc;
        acc.vars = all_vars;
        for (const Formula& c : f.children()) {
          FMTK_ASSIGN_OR_RETURN(Table t, Eval(c));
          Table extended = ExtendTo(t, all_vars, s_.domain_size());
          acc.rows.insert(acc.rows.end(),
                          std::make_move_iterator(extended.rows.begin()),
                          std::make_move_iterator(extended.rows.end()));
        }
        DedupRows(acc);
        return acc;
      }
      case FormulaKind::kImplies:
        return Eval(Formula::Or(Formula::Not(f.child(0)), f.child(1)));
      case FormulaKind::kIff:
        return Eval(Formula::Or(
            Formula::And(f.child(0), f.child(1)),
            Formula::And(Formula::Not(f.child(0)),
                         Formula::Not(f.child(1)))));
      case FormulaKind::kExists: {
        FMTK_ASSIGN_OR_RETURN(Table t, Eval(f.body()));
        return Project(t, f.variable());
      }
      case FormulaKind::kForall: {
        // ∀x φ == ¬∃x ¬φ.
        FMTK_ASSIGN_OR_RETURN(
            Table t,
            Eval(Formula::Exists(f.variable(), Formula::Not(f.body()))));
        return Complement(t, s_.domain_size());
      }
      case FormulaKind::kCountExists: {
        FMTK_ASSIGN_OR_RETURN(Table t, Eval(f.body()));
        return ProjectCounting(t, f.variable(), f.count());
      }
    }
    return Status::Internal("unreachable formula kind");
  }

 private:
  static std::vector<std::string> FreeVarList(const Formula& f) {
    std::set<std::string> fv = FreeVariables(f);
    return std::vector<std::string>(fv.begin(), fv.end());
  }

  Result<Element> ResolveConstant(const Term& term) const {
    std::optional<std::size_t> index =
        s_.signature().FindConstant(term.name);
    if (!index.has_value()) {
      return Status::SignatureMismatch("unknown constant symbol: " +
                                       term.name);
    }
    std::optional<Element> value = s_.constant(*index);
    if (!value.has_value()) {
      return Status::InvalidArgument("constant " + term.name +
                                     " is uninterpreted in this structure");
    }
    return *value;
  }

  Result<Table> EvalAtom(const Formula& f) {
    std::optional<std::size_t> index =
        s_.signature().FindRelation(f.relation_name());
    if (!index.has_value()) {
      return Status::SignatureMismatch("unknown relation symbol: " +
                                       f.relation_name());
    }
    if (s_.signature().relation(*index).arity != f.terms().size()) {
      return Status::SignatureMismatch("arity mismatch for relation " +
                                       f.relation_name());
    }
    Table out;
    out.vars = FreeVarList(f);
    // Resolve constant positions once.
    std::vector<std::optional<Element>> fixed(f.terms().size());
    for (std::size_t i = 0; i < f.terms().size(); ++i) {
      if (f.terms()[i].is_constant()) {
        FMTK_ASSIGN_OR_RETURN(Element e, ResolveConstant(f.terms()[i]));
        fixed[i] = e;
      }
    }
    for (const auto tuple : s_.relation(*index).rows()) {
      std::map<std::string, Element> binding;
      bool match = true;
      for (std::size_t i = 0; i < tuple.size() && match; ++i) {
        if (fixed[i].has_value()) {
          match = (*fixed[i] == tuple[i]);
          continue;
        }
        const std::string& var = f.terms()[i].name;
        auto [it, inserted] = binding.emplace(var, tuple[i]);
        if (!inserted && it->second != tuple[i]) {
          match = false;  // Repeated variable bound inconsistently.
        }
      }
      if (!match) {
        continue;
      }
      Tuple row;
      row.reserve(out.vars.size());
      for (const std::string& v : out.vars) {
        row.push_back(binding.at(v));
      }
      out.rows.push_back(std::move(row));
    }
    DedupRows(out);
    return out;
  }

  Result<Table> EvalEqual(const Formula& f) {
    const Term& lhs = f.terms()[0];
    const Term& rhs = f.terms()[1];
    Table out;
    out.vars = FreeVarList(f);
    if (lhs.is_constant() && rhs.is_constant()) {
      FMTK_ASSIGN_OR_RETURN(Element a, ResolveConstant(lhs));
      FMTK_ASSIGN_OR_RETURN(Element b, ResolveConstant(rhs));
      if (a == b) {
        out.rows.push_back({});
      }
      return out;
    }
    if (lhs.is_variable() && rhs.is_variable()) {
      if (lhs.name == rhs.name) {
        for (Element d = 0; d < s_.domain_size(); ++d) {
          out.rows.push_back({d});
        }
        return out;
      }
      for (Element d = 0; d < s_.domain_size(); ++d) {
        out.rows.push_back({d, d});
      }
      return out;
    }
    // Exactly one side is a variable.
    const Term& constant = lhs.is_constant() ? lhs : rhs;
    FMTK_ASSIGN_OR_RETURN(Element value, ResolveConstant(constant));
    out.rows.push_back({value});
    return out;
  }

  // ∃^{>=k} x: group rows by the remaining columns and keep groups with at
  // least k distinct x-values.
  Table ProjectCounting(const Table& t, const std::string& var,
                        std::size_t threshold) {
    auto it = std::find(t.vars.begin(), t.vars.end(), var);
    if (it == t.vars.end()) {
      // x not free in the body: at least k elements must exist at all.
      Table out;
      out.vars = t.vars;
      if (s_.domain_size() >= threshold) {
        out.rows = t.rows;
      }
      return out;
    }
    const std::size_t drop = static_cast<std::size_t>(it - t.vars.begin());
    Table out;
    out.vars = t.vars;
    out.vars.erase(out.vars.begin() + static_cast<std::ptrdiff_t>(drop));
    std::unordered_map<Tuple, std::size_t, VectorHash<Element>> group_counts;
    for (const Tuple& row : t.rows) {
      Tuple key;
      key.reserve(row.size() - 1);
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != drop) {
          key.push_back(row[i]);
        }
      }
      ++group_counts[key];  // Rows are distinct, so this counts x-values.
    }
    for (auto& [key, count] : group_counts) {
      if (count >= threshold) {
        out.rows.push_back(key);
      }
    }
    return out;
  }

  Table Project(const Table& t, const std::string& var) {
    auto it = std::find(t.vars.begin(), t.vars.end(), var);
    if (it == t.vars.end()) {
      // x not free in the body: ∃x φ == φ on nonempty domains, false on the
      // empty one.
      if (s_.domain_size() == 0) {
        Table empty;
        empty.vars = t.vars;
        return empty;
      }
      return t;
    }
    const std::size_t drop =
        static_cast<std::size_t>(it - t.vars.begin());
    Table out;
    out.vars = t.vars;
    out.vars.erase(out.vars.begin() + static_cast<std::ptrdiff_t>(drop));
    out.rows.reserve(t.rows.size());
    for (const Tuple& row : t.rows) {
      Tuple projected;
      projected.reserve(row.size() - 1);
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != drop) {
          projected.push_back(row[i]);
        }
      }
      out.rows.push_back(std::move(projected));
    }
    DedupRows(out);
    return out;
  }

  const Structure& s_;
};

}  // namespace

namespace {

// The analyzed front door shared by both evaluators: runs the static
// analyzer against the structure's vocabulary and rejects on errors
// (vocabulary problems always; safe-range violations only when the caller
// opted into the query profile).
Status AnalyzeFrontDoor(const Structure& structure, const Formula& f,
                        const QueryEvalOptions& options) {
  FoAnalyzerOptions analyzer_options;
  analyzer_options.signature = &structure.signature();
  analyzer_options.profile = options.require_safe_range
                                 ? FoProfile::kQuery
                                 : FoProfile::kModelCheck;
  FoAnalysis analysis = AnalyzeFormula(f, analyzer_options);
  Status status = analysis.status();
  if (options.analysis != nullptr) {
    *options.analysis = std::move(analysis);
  }
  return status;
}

}  // namespace

Result<Relation> EvaluateQuery(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables) {
  return EvaluateQuery(structure, f, output_variables, QueryEvalOptions{});
}

Result<Relation> EvaluateQuery(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables,
    const QueryEvalOptions& options) {
  FMTK_RETURN_IF_ERROR(AnalyzeFrontDoor(structure, f, options));
  // Every free variable must be listed.
  std::set<std::string> out_set(output_variables.begin(),
                                output_variables.end());
  if (out_set.size() != output_variables.size()) {
    return Status::InvalidArgument("duplicate output variable");
  }
  for (const std::string& v : FreeVariables(f)) {
    if (out_set.find(v) == out_set.end()) {
      return Status::InvalidArgument("free variable " + v +
                                     " missing from output variables");
    }
  }
  BottomUpEvaluator evaluator(structure);
  FMTK_ASSIGN_OR_RETURN(Table t, evaluator.Eval(f));
  std::vector<std::string> sorted_out(output_variables.begin(),
                                      output_variables.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  Table full = ExtendTo(t, sorted_out, structure.domain_size());
  // Reorder columns from sorted order to the requested order.
  std::vector<std::size_t> positions;
  positions.reserve(output_variables.size());
  for (const std::string& v : output_variables) {
    positions.push_back(static_cast<std::size_t>(
        std::find(full.vars.begin(), full.vars.end(), v) -
        full.vars.begin()));
  }
  Relation answers(output_variables.size());
  for (const Tuple& row : full.rows) {
    Tuple out_row;
    out_row.reserve(positions.size());
    for (std::size_t p : positions) {
      out_row.push_back(row[p]);
    }
    answers.Add(out_row);
  }
  return answers;
}

Result<Relation> EvaluateQueryNaive(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables) {
  FMTK_RETURN_IF_ERROR(AnalyzeFrontDoor(structure, f, QueryEvalOptions{}));
  std::set<std::string> out_set(output_variables.begin(),
                                output_variables.end());
  if (out_set.size() != output_variables.size()) {
    return Status::InvalidArgument("duplicate output variable");
  }
  for (const std::string& v : FreeVariables(f)) {
    if (out_set.find(v) == out_set.end()) {
      return Status::InvalidArgument("free variable " + v +
                                     " missing from output variables");
    }
  }
  // Compile once, then evaluate each candidate tuple on flat slot state —
  // no per-candidate signature validation or string-keyed environment.
  FMTK_ASSIGN_OR_RETURN(CompiledEvaluator compiled,
                        CompiledEvaluator::Compile(structure, f));
  return EnumerateAnswers(compiled, structure.domain_size(), output_variables);
}

Result<Relation> EnumerateAnswers(
    CompiledEvaluator& evaluator, std::size_t domain_size,
    const std::vector<std::string>& output_variables) {
  const std::vector<std::string>& free_vars = evaluator.free_variables();
  // free_vars[i] = output_variables[row_source[i]].
  std::vector<std::size_t> row_source;
  row_source.reserve(free_vars.size());
  for (const std::string& v : free_vars) {
    const auto it =
        std::find(output_variables.begin(), output_variables.end(), v);
    if (it == output_variables.end()) {
      return Status::InvalidArgument(
          "output variables must cover free variable " + v);
    }
    row_source.push_back(
        static_cast<std::size_t>(it - output_variables.begin()));
  }
  Relation answers(output_variables.size());
  Status error = Status::OK();
  std::vector<Element> row(free_vars.size(), 0);
  ForEachDomainTuple(
      domain_size, output_variables.size(),
      [&](const Tuple& candidate) {
        for (std::size_t i = 0; i < row_source.size(); ++i) {
          row[i] = candidate[row_source[i]];
        }
        Result<bool> holds = evaluator.EvaluateRow(row);
        if (!holds.ok()) {
          error = holds.status();
          return false;
        }
        if (*holds) {
          answers.Add(candidate);
        }
        return true;
      });
  if (!error.ok()) {
    return error;
  }
  return answers;
}

}  // namespace fmtk
