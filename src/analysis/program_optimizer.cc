#include "analysis/program_optimizer.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <utility>

#include "analysis/fo_analyzer.h"
#include "base/string_util.h"

namespace fmtk {

namespace {

// Local renderings: fmtk_analysis uses only header-level datalog types
// (DlAtom::ToString lives in fmtk_datalog object code).
std::string FormatAtom(const DlAtom& atom) {
  std::string out = atom.negated ? "!" + atom.predicate + "(" :
                                   atom.predicate + "(";
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += atom.terms[i].is_variable ? atom.terms[i].variable
                                     : std::to_string(atom.terms[i].value);
  }
  out += ")";
  return out;
}

std::string FormatRule(const DlRule& rule) {
  std::string out = FormatAtom(rule.head);
  if (!rule.body.empty()) {
    out += " :- ";
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += FormatAtom(rule.body[i]);
    }
  }
  out += ".";
  return out;
}

// Renders a rule with variables renamed to v0, v1, ... in first-occurrence
// order (head, then body left to right) — two rules are duplicates iff
// their canonical texts agree.
std::string CanonicalRuleText(const DlRule& rule) {
  std::map<std::string, std::string> rename;
  std::size_t next = 0;
  const auto term_text = [&](const DlTerm& term) -> std::string {
    if (!term.is_variable) {
      return std::to_string(term.value);
    }
    auto [it, inserted] =
        rename.emplace(term.variable, "v" + std::to_string(next));
    if (inserted) {
      ++next;
    }
    return it->second;
  };
  const auto atom_text = [&](const DlAtom& atom) {
    std::string out = atom.negated ? "!" + atom.predicate + "(" :
                                     atom.predicate + "(";
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += term_text(atom.terms[i]);
    }
    out += ")";
    return out;
  };
  std::string out = atom_text(rule.head);
  out += ":-";
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += atom_text(rule.body[i]);
  }
  return out;
}

// --- theta-subsumption ------------------------------------------------------
// `general` subsumes `specific` when a substitution of general's variables
// maps its head onto specific's head and its body into (a subset of)
// specific's body, matching negation flags. Then every instantiation firing
// `specific` also fires `general` with the same head tuple, so `specific`
// is redundant.

bool MatchTerm(const DlTerm& general, const DlTerm& specific,
               std::map<std::string, DlTerm>& substitution) {
  if (!general.is_variable) {
    return !specific.is_variable && general.value == specific.value;
  }
  auto [it, inserted] = substitution.emplace(general.variable, specific);
  return inserted || it->second == specific;
}

bool MatchAtom(const DlAtom& general, const DlAtom& specific,
               std::map<std::string, DlTerm>& substitution) {
  if (general.predicate != specific.predicate ||
      general.negated != specific.negated ||
      general.terms.size() != specific.terms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < general.terms.size(); ++i) {
    if (!MatchTerm(general.terms[i], specific.terms[i], substitution)) {
      return false;
    }
  }
  return true;
}

bool MatchBody(std::size_t index, const std::vector<DlAtom>& general_body,
               const std::vector<DlAtom>& specific_body,
               std::map<std::string, DlTerm>& substitution) {
  if (index == general_body.size()) {
    return true;
  }
  for (const DlAtom& candidate : specific_body) {
    std::map<std::string, DlTerm> saved = substitution;
    if (MatchAtom(general_body[index], candidate, substitution) &&
        MatchBody(index + 1, general_body, specific_body, substitution)) {
      return true;
    }
    substitution = std::move(saved);
  }
  return false;
}

bool Subsumes(const DlRule& general, const DlRule& specific) {
  std::map<std::string, DlTerm> substitution;
  return MatchAtom(general.head, specific.head, substitution) &&
         MatchBody(0, general.body, specific.body, substitution);
}

bool HasConstants(const DatalogProgram& program) {
  for (const DlRule& rule : program.rules()) {
    for (const DlTerm& term : rule.head.terms) {
      if (!term.is_variable) {
        return true;
      }
    }
    for (const DlAtom& atom : rule.body) {
      for (const DlTerm& term : atom.terms) {
        if (!term.is_variable) {
          return true;
        }
      }
    }
  }
  return false;
}

bool HasNegation(const DatalogProgram& program) {
  for (const DlRule& rule : program.rules()) {
    for (const DlAtom& atom : rule.body) {
      if (atom.negated) {
        return true;
      }
    }
  }
  return false;
}

// --- FO lowering ------------------------------------------------------------
// Unfolds a non-recursive, constant-free program into first-order formulas:
// PredFormula(p, args) = OR over p's rules of
//   EXISTS fresh-body-vars (head-unification equalities AND body atoms),
// with IDB body atoms recursively inlined and negated atoms wrapped in NOT.
// Domain-relative semantics match the Datalog engines' (fact schemas range
// over the whole domain; negation is complement over completed relations).

class FoLowering {
 public:
  FoLowering(const DatalogProgram& program, const std::set<std::string>& idb)
      : idb_(idb) {
    for (const DlRule& rule : program.rules()) {
      rules_of_[rule.head.predicate].push_back(&rule);
    }
  }

  bool ok() const { return ok_; }

  Formula Lower(const std::string& predicate, const std::vector<Term>& args,
                std::size_t depth) {
    if (!ok_ || depth > 64) {
      ok_ = false;
      return Formula::False();
    }
    std::vector<Formula> disjuncts;
    for (const DlRule* rule : rules_of_[predicate]) {
      std::map<std::string, Term> substitution;
      std::vector<Formula> conjuncts;
      for (std::size_t i = 0; i < rule->head.terms.size(); ++i) {
        const DlTerm& term = rule->head.terms[i];
        if (!term.is_variable) {
          ok_ = false;  // constants are pre-excluded; defensive
          return Formula::False();
        }
        auto [it, inserted] = substitution.emplace(term.variable, args[i]);
        if (!inserted) {
          conjuncts.push_back(Formula::Equal(args[i], it->second));
        }
      }
      std::vector<std::string> fresh;
      for (const DlAtom& atom : rule->body) {
        for (const DlTerm& term : atom.terms) {
          if (!term.is_variable) {
            ok_ = false;
            return Formula::False();
          }
          auto it = substitution.find(term.variable);
          if (it == substitution.end()) {
            const std::string name = "u" + std::to_string(fresh_++);
            fresh.push_back(name);
            substitution.emplace(term.variable, Term::Var(name));
          }
        }
      }
      for (const DlAtom& atom : rule->body) {
        if (atom_budget_ == 0) {
          ok_ = false;
          return Formula::False();
        }
        --atom_budget_;
        std::vector<Term> terms;
        terms.reserve(atom.terms.size());
        for (const DlTerm& term : atom.terms) {
          terms.push_back(substitution.at(term.variable));
        }
        Formula f = idb_.count(atom.predicate) > 0
                        ? Lower(atom.predicate, terms, depth + 1)
                        : Formula::Atom(atom.predicate, std::move(terms));
        if (!ok_) {
          return Formula::False();
        }
        conjuncts.push_back(atom.negated ? Formula::Not(std::move(f))
                                         : std::move(f));
      }
      Formula body = conjuncts.empty() ? Formula::True()
                                       : Formula::And(std::move(conjuncts));
      disjuncts.push_back(fresh.empty()
                              ? std::move(body)
                              : Formula::Exists(fresh, std::move(body)));
    }
    if (disjuncts.empty()) {
      return Formula::False();
    }
    return disjuncts.size() == 1 ? std::move(disjuncts.front())
                                 : Formula::Or(std::move(disjuncts));
  }

 private:
  const std::set<std::string>& idb_;
  std::map<std::string, std::vector<const DlRule*>> rules_of_;
  // The lowering gives up once the unfolded formula exceeds this many atoms
  // (rule unfolding can be exponential in the predicate depth).
  std::size_t atom_budget_ = 2048;
  std::size_t fresh_ = 0;
  bool ok_ = true;
};

// --- magic sets -------------------------------------------------------------
// Standard (supplementary-free) magic-set transformation with left-to-right
// sideways information passing. Adornment patterns are strings over {b,f},
// one character per argument ("tc^bf" = first argument bound). For every
// reachable adorned predicate p^a with at least one bound argument the
// transformation emits
//   - adorned copies p__a of p's rules, guarded by a magic atom
//     m__p__a(bound head args) when a has a bound position, and
//   - magic rules deriving m__q__a' for every IDB body atom q from the
//     guard plus the atoms to its left (the SIP prefix),
// seeding demand from the constants of the query rules. Output predicates
// keep their original names (all-free pattern, no guard), so the output
// relations are unchanged while intermediate predicates only compute the
// demanded fragment.

std::string AdornedName(const std::string& predicate,
                        const std::string& pattern) {
  return pattern.find('b') == std::string::npos ? predicate
                                                : predicate + "__" + pattern;
}

std::string MagicName(const std::string& predicate,
                      const std::string& pattern) {
  return "m__" + predicate + "__" + pattern;
}

struct MagicResult {
  DatalogProgram program;
  std::vector<std::string> specialized;  // "tc -> tc__bf (magic m__tc__bf)"
};

std::optional<MagicResult> MagicTransform(const DatalogProgram& program,
                                          const std::vector<std::string>& outputs,
                                          const std::set<std::string>& idb,
                                          const std::set<std::string>& edb) {
  std::map<std::string, std::vector<const DlRule*>> rules_of;
  for (const DlRule& rule : program.rules()) {
    rules_of[rule.head.predicate].push_back(&rule);
  }
  for (const std::string& output : outputs) {
    if (idb.count(output) == 0) {
      return std::nullopt;
    }
  }

  std::set<std::string> visited;  // "pred/pattern"
  std::deque<std::pair<std::string, std::string>> worklist;
  const auto enqueue = [&](const std::string& predicate,
                           const std::string& pattern) {
    if (visited.insert(predicate + "/" + pattern).second) {
      worklist.emplace_back(predicate, pattern);
    }
  };
  for (const std::string& output : outputs) {
    const std::size_t arity =
        rules_of.at(output).front()->head.terms.size();
    enqueue(output, std::string(arity, 'f'));
  }

  DatalogProgram out;
  bool any_bound = false;
  std::set<std::string> bound_patterns;  // "pred/pattern" with a 'b'
  while (!worklist.empty()) {
    const auto [predicate, pattern] = worklist.front();
    worklist.pop_front();
    const bool head_guarded = pattern.find('b') != std::string::npos;
    if (head_guarded) {
      bound_patterns.insert(predicate + "/" + pattern);
    }
    for (const DlRule* rule : rules_of.at(predicate)) {
      DlAtom guard;  // m__p__a(bound head args)
      std::set<std::string> bound;
      if (head_guarded) {
        guard.predicate = MagicName(predicate, pattern);
        for (std::size_t i = 0; i < pattern.size(); ++i) {
          if (pattern[i] != 'b') {
            continue;
          }
          guard.terms.push_back(rule->head.terms[i]);
          if (rule->head.terms[i].is_variable) {
            bound.insert(rule->head.terms[i].variable);
          }
        }
      }
      std::vector<DlAtom> emitted;
      for (const DlAtom& atom : rule->body) {
        if (idb.count(atom.predicate) == 0) {
          emitted.push_back(atom);
        } else {
          std::string adornment(atom.terms.size(), 'f');
          for (std::size_t i = 0; i < atom.terms.size(); ++i) {
            const DlTerm& term = atom.terms[i];
            if (!term.is_variable || bound.count(term.variable) > 0) {
              adornment[i] = 'b';
            }
          }
          if (adornment.find('b') != std::string::npos) {
            any_bound = true;
            DlRule magic;
            magic.head.predicate = MagicName(atom.predicate, adornment);
            for (std::size_t i = 0; i < adornment.size(); ++i) {
              if (adornment[i] == 'b') {
                magic.head.terms.push_back(atom.terms[i]);
              }
            }
            magic.span = rule->span;
            if (head_guarded) {
              magic.body.push_back(guard);
            }
            magic.body.insert(magic.body.end(), emitted.begin(),
                              emitted.end());
            out.AddRule(std::move(magic));
          }
          DlAtom adorned = atom;
          adorned.predicate = AdornedName(atom.predicate, adornment);
          emitted.push_back(std::move(adorned));
          enqueue(atom.predicate, adornment);
        }
        for (const DlTerm& term : atom.terms) {
          // A negated atom binds nothing; positive atoms bind all their
          // variables once evaluated.
          if (!atom.negated && term.is_variable) {
            bound.insert(term.variable);
          }
        }
      }
      DlRule adorned_rule;
      adorned_rule.head = rule->head;
      adorned_rule.head.predicate = AdornedName(predicate, pattern);
      adorned_rule.span = rule->span;
      if (head_guarded) {
        adorned_rule.body.push_back(guard);
      }
      adorned_rule.body.insert(adorned_rule.body.end(), emitted.begin(),
                               emitted.end());
      out.AddRule(std::move(adorned_rule));
    }
  }
  if (!any_bound) {
    return std::nullopt;  // no constants anywhere: nothing to demand-restrict
  }

  // Freshly minted names must not collide with the user's vocabulary.
  for (const std::string& key : visited) {
    const std::size_t slash = key.find('/');
    const std::string predicate = key.substr(0, slash);
    const std::string pattern = key.substr(slash + 1);
    const std::string adorned = AdornedName(predicate, pattern);
    if (adorned != predicate &&
        (idb.count(adorned) > 0 || edb.count(adorned) > 0)) {
      return std::nullopt;
    }
    const std::string magic = MagicName(predicate, pattern);
    if (idb.count(magic) > 0 || edb.count(magic) > 0) {
      return std::nullopt;
    }
  }

  MagicResult result;
  result.program = std::move(out);
  for (const std::string& key : bound_patterns) {
    const std::size_t slash = key.find('/');
    const std::string predicate = key.substr(0, slash);
    const std::string pattern = key.substr(slash + 1);
    result.specialized.push_back(predicate + " -> " +
                                 AdornedName(predicate, pattern) +
                                 " (magic " + MagicName(predicate, pattern) +
                                 ", pattern " + pattern + ")");
  }
  return result;
}

}  // namespace

std::vector<std::string> OptimizedDatalogProgram::RewriteSummary() const {
  std::vector<std::string> out;
  out.reserve(rewrites.size());
  for (const DatalogRewrite& rewrite : rewrites) {
    out.push_back(rewrite.ToString());
  }
  return out;
}

std::vector<std::string> OptimizedDatalogProgram::BoundednessSummary() const {
  std::vector<std::string> out;
  out.reserve(boundedness.size());
  for (const BoundednessVerdict& verdict : boundedness) {
    out.push_back(verdict.ToString());
  }
  return out;
}

Result<OptimizedDatalogProgram> OptimizeDatalogProgram(
    const DatalogProgram& program, const DatalogOptimizerOptions& options) {
  DatalogAnalyzerOptions analyzer_options;
  analyzer_options.signature = options.signature;
  analyzer_options.outputs = options.outputs;

  // Front door: rewriting an erroneous program (inconsistent arities,
  // unstratifiable negation, ...) has no defined semantics.
  {
    DatalogAnalysis input = AnalyzeProgram(program, analyzer_options);
    if (!input.ok()) {
      return input.status();
    }
  }

  OptimizedDatalogProgram out;
  std::vector<DlRule> rules = program.rules();
  std::vector<bool> dead(rules.size(), false);
  const auto record = [&](const std::string& pass, DiagCode code,
                          const DlRule& rule, std::string detail) {
    out.rewrites.push_back(
        DatalogRewrite{pass, DiagCodeId(code), detail});
    out.provenance.Report(code, rule.span, std::move(detail));
  };

  // --- duplicate rules (FMTK112) -------------------------------------------
  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    auto [it, inserted] = seen.emplace(CanonicalRuleText(rules[i]), i);
    if (!inserted) {
      dead[i] = true;
      record("duplicate-rule", DiagCode::kDuplicateRule, rules[i],
             "dropped '" + FormatRule(rules[i]) +
                 "': duplicates rule '" + FormatRule(rules[it->second]) +
                 "' up to renaming");
    }
  }

  // --- subsumed rules (FMTK113) --------------------------------------------
  for (std::size_t j = 0; j < rules.size(); ++j) {
    if (dead[j]) {
      continue;
    }
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (i == j || dead[i] ||
          rules[i].head.predicate != rules[j].head.predicate) {
        continue;
      }
      if (Subsumes(rules[i], rules[j])) {
        dead[j] = true;
        record("subsumed-rule", DiagCode::kSubsumedRule, rules[j],
               "dropped '" + FormatRule(rules[j]) + "': subsumed by '" +
                   FormatRule(rules[i]) + "'");
        break;
      }
    }
  }

  // --- bounded recursion (FMTK114): self-head rules ------------------------
  // A rule whose body repeats its own head atom verbatim can only rederive
  // tuples that are already present; dropping it may turn the recursion
  // into a bounded (non-recursive) one.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    for (const DlAtom& atom : rules[i].body) {
      if (!atom.negated && atom.predicate == rules[i].head.predicate &&
          atom.terms == rules[i].head.terms) {
        // Keep the predicate's last defining rule when other rules still
        // reference it: dropping it would demote the (provably empty)
        // IDB predicate to an unknown EDB symbol and change what the
        // referencing rules mean.
        bool last_definition = true;
        bool referenced_elsewhere = false;
        for (std::size_t j = 0; j < rules.size(); ++j) {
          if (j == i || dead[j]) {
            continue;
          }
          last_definition = last_definition &&
                            rules[j].head.predicate !=
                                rules[i].head.predicate;
          for (const DlAtom& other : rules[j].body) {
            referenced_elsewhere = referenced_elsewhere ||
                                   other.predicate ==
                                       rules[i].head.predicate;
          }
        }
        if (last_definition && referenced_elsewhere) {
          break;
        }
        dead[i] = true;
        record("bounded-recursion", DiagCode::kBoundedRecursion, rules[i],
               "dropped '" + FormatRule(rules[i]) +
                   "': the body repeats the head atom, so the rule "
                   "cannot derive new tuples");
        break;
      }
    }
  }

  const auto alive_program = [&]() {
    DatalogProgram current;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!dead[i]) {
        current.AddRule(rules[i]);
      }
    }
    return current;
  };

  // --- dead rules relative to the outputs (FMTK106) ------------------------
  // Reuses the analyzer's reachability (the same roots fmtk_lint --output
  // feeds FMTK106), computed on the post-drop program.
  if (!options.outputs.empty()) {
    DatalogProgram current = alive_program();
    DatalogAnalysis analysis = AnalyzeProgram(current, analyzer_options);
    std::size_t alive_index = 0;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (dead[i]) {
        continue;
      }
      if (!analysis.rule_reachable[alive_index]) {
        dead[i] = true;
        record("dead-rule", DiagCode::kUnreachableRule, rules[i],
               "dropped '" + FormatRule(rules[i]) +
                   "': unreachable from the output predicate" +
                   (options.outputs.size() == 1 ? " '" : "s '") +
                   Join(options.outputs, "', '") + "'");
      }
      ++alive_index;
    }
  }

  out.program = alive_program();
  out.analysis = AnalyzeProgram(out.program, analyzer_options);

  // --- boundedness verdicts -------------------------------------------------
  for (const DatalogSccInfo& scc : out.analysis.sccs) {
    for (const std::string& predicate : scc.predicates) {
      BoundednessVerdict verdict;
      verdict.predicate = predicate;
      verdict.bounded = !scc.recursive;
      verdict.reason = !scc.recursive ? "non-recursive after rewrites"
                       : scc.linear   ? "linear recursion"
                                      : "nonlinear recursion";
      out.boundedness.push_back(std::move(verdict));
    }
  }
  std::sort(out.boundedness.begin(), out.boundedness.end(),
            [](const BoundednessVerdict& a, const BoundednessVerdict& b) {
              return a.predicate < b.predicate;
            });

  // --- FO lowering of bounded programs --------------------------------------
  // Constants are excluded because Datalog literals are raw domain elements
  // while FO constants are named symbols of the signature.
  const std::set<std::string> idb = out.program.IdbPredicates();
  if (!out.program.rules().empty() && !HasConstants(out.program)) {
    bool all_bounded = true;
    for (const DatalogSccInfo& scc : out.analysis.sccs) {
      all_bounded = all_bounded && !scc.recursive;
    }
    if (all_bounded) {
      std::vector<std::string> requested;
      if (options.outputs.empty()) {
        requested.assign(idb.begin(), idb.end());
      } else {
        for (const std::string& output : options.outputs) {
          if (idb.count(output) > 0) {
            requested.push_back(output);
          }
        }
      }
      FoLowering lowering(out.program, idb);
      bool all_lowered = !requested.empty();
      std::map<std::string, Formula> queries;
      std::map<std::string, std::size_t> arity_of;
      for (const DlRule& rule : out.program.rules()) {
        arity_of[rule.head.predicate] = rule.head.terms.size();
      }
      for (const std::string& predicate : requested) {
        std::vector<Term> args;
        for (std::size_t i = 0; i < arity_of[predicate]; ++i) {
          args.push_back(Term::Var("v" + std::to_string(i)));
        }
        Formula f = lowering.Lower(predicate, args, 0);
        if (!lowering.ok()) {
          all_lowered = false;
          break;
        }
        if (options.signature != nullptr) {
          FoAnalyzerOptions fo_options;
          fo_options.signature = options.signature;
          fo_options.profile = FoProfile::kModelCheck;
          if (AnalyzeFormula(f, fo_options).diagnostics.has_errors()) {
            all_lowered = false;
            break;
          }
        }
        queries.emplace(predicate, std::move(f));
      }
      if (all_lowered) {
        out.fo_expressible = true;
        out.fo_queries = std::move(queries);
        out.rewrites.push_back(DatalogRewrite{
            "fo-lowering", "",
            "all predicates bounded: lowered " +
                std::to_string(out.fo_queries.size()) +
                " output predicate(s) to FO for engine routing"});
      }
    }
  }

  // --- magic sets ------------------------------------------------------------
  // Only for explicit outputs (otherwise every predicate is demanded in
  // full) and negation-free programs (pushing demand through negation is
  // not generally sound without the full doubled-program construction).
  if (!options.outputs.empty() && !out.program.rules().empty() &&
      !HasNegation(out.program)) {
    std::optional<MagicResult> magic = MagicTransform(
        out.program, options.outputs, idb, out.program.EdbPredicates());
    if (magic.has_value()) {
      DatalogAnalysis magic_analysis =
          AnalyzeProgram(magic->program, analyzer_options);
      // Defensive: the transformation preserves well-formedness by
      // construction; never ship a program the analyzer rejects.
      if (magic_analysis.ok()) {
        out.program = std::move(magic->program);
        out.analysis = std::move(magic_analysis);
        out.magic_applied = true;
        for (const std::string& line : magic->specialized) {
          out.rewrites.push_back(
              DatalogRewrite{"magic-sets", "", "specialized " + line});
        }
      }
    }
  }

  return out;
}

}  // namespace fmtk
