#include "eval/compiled_eval.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/fo_analyzer.h"
#include "base/bitset.h"
#include "base/check.h"
#include "logic/analysis.h"

namespace fmtk {

namespace internal_eval {

// A term with its symbol pre-resolved: either an environment slot (variable)
// or a constant index into the signature. The name is kept only for error
// messages on the cold path.
struct CompiledTerm {
  bool is_slot = true;
  std::uint32_t index = 0;
  std::string name;
};

struct PlanNode {
  FormulaKind kind = FormulaKind::kTrue;
  std::uint32_t relation = 0;          // kAtom: signature relation index.
  std::vector<CompiledTerm> terms;     // kAtom (arity many), kEqual (2).
  std::vector<std::uint32_t> children;
  std::uint32_t slot = 0;              // quantifiers: environment slot.
  std::size_t count = 0;               // kCountExists threshold.
  std::uint32_t guard = 0;             // quantifiers: index into Plan::guards.
};

struct Plan {
  std::vector<PlanNode> nodes;  // Post-order; root is nodes[root].
  std::uint32_t root = 0;
  std::vector<std::string> free_vars;  // Sorted; free_vars[i] has slot i.
  std::size_t slot_count = 0;
  // Quantifier pruning guards, pre-order: the quantified variable must
  // occur at each guard column for the body (∃/∃^{≥k}) or the antecedent
  // (∀) to hold, so enumeration is restricted to the elements that do.
  std::vector<QuantifierGuard> guards;
  bool has_correlated = false;
  Signature signature;  // The signature compiled against (for Bind checks).
};

bool IsQuantifier(FormulaKind kind) {
  return kind == FormulaKind::kExists || kind == FormulaKind::kForall ||
         kind == FormulaKind::kCountExists;
}

// Per-quantifier candidate source, fixed at Bind time. Static guards:
// `values` points at a sorted ascending element list — a single guard's
// column values in place, or the bitset-AND of several guards' columns
// materialised into `storage`. Correlated guards: `relation` and the
// `postings` of its bound column, probed per instantiation. Both null:
// the quantifier scans the whole domain.
struct NodeCandidates {
  const std::vector<Element>* values = nullptr;
  std::vector<Element> storage;
  const Relation* relation = nullptr;
  const Relation::ColumnIndex* postings = nullptr;
};

struct Binding {
  const Structure* structure = nullptr;
  std::size_t domain = 0;
  std::size_t free_count = 0;
  std::vector<const Relation*> relations;          // By signature index.
  std::vector<std::optional<Element>> constants;   // By signature index.
  std::vector<NodeCandidates> prune;               // Per plan node.
};

namespace {

// Compiles a signature-validated Formula into a Plan. Cannot fail: every
// symbol was checked by CheckAgainstSignature and every variable is either
// quantified or appears in the precomputed free-variable list.
class Compiler {
 public:
  explicit Compiler(const Signature& signature) : signature_(signature) {}

  std::shared_ptr<const Plan> Run(const Formula& f) {
    auto plan = std::make_shared<Plan>();
    plan_ = plan.get();
    plan_->signature = signature_;
    std::set<std::string> free = FreeVariables(f);
    plan_->free_vars.assign(free.begin(), free.end());
    for (std::size_t i = 0; i < plan_->free_vars.size(); ++i) {
      free_slots_[plan_->free_vars[i]] = static_cast<std::uint32_t>(i);
    }
    slot_count_ = plan_->free_vars.size();
    plan_->root = CompileNode(f);
    plan_->slot_count = slot_count_;
    return plan;
  }

 private:
  std::uint32_t ResolveVariable(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == name) {
        return it->second;
      }
    }
    auto it = free_slots_.find(name);
    FMTK_CHECK(it != free_slots_.end()) << "variable " << name
                                        << " missing from free-variable list";
    return it->second;
  }

  bool IsBoundInScope(const std::string& name) const {
    for (const auto& [bound_name, unused] : scope_) {
      if (bound_name == name) {
        return true;
      }
    }
    return false;
  }

  CompiledTerm CompileTerm(const Term& t) const {
    CompiledTerm out;
    out.name = t.name;
    if (t.is_constant()) {
      out.is_slot = false;
      out.index = static_cast<std::uint32_t>(*signature_.FindConstant(t.name));
    } else {
      out.is_slot = true;
      out.index = ResolveVariable(t.name);
    }
    return out;
  }

  // A guard atom found in a quantifier body: the quantified variable sits
  // at `column` of `relation`; `bound` is the first other column holding an
  // enclosing quantifier's variable, with that variable's slot.
  struct GuardAtom {
    std::uint32_t relation = 0;
    std::uint32_t column = 0;
    std::optional<std::pair<std::uint32_t, std::uint32_t>> bound;
  };

  // A "transparent" conjunct in a quantifier body is one whose evaluation
  // can neither error nor depend on anything unavailable at prune time: an
  // atom with no constants whose terms are all the quantified variable v or
  // variables bound by enclosing quantifiers (constants could be
  // uninterpreted and free variables unbound at evaluation time; both would
  // make a skipped element error-free here but error-producing in a full
  // scan). When such an atom contains v it is a *guard*: v must occur at
  // that column of that relation or the atom — and with it the conjunction
  // — is false. Returns the guard, nullopt for a v-independent but still
  // transparent atom.
  std::optional<GuardAtom> GuardOf(const Formula& g, const std::string& v,
                                   bool* transparent) const {
    *transparent = false;
    if (g.kind() == FormulaKind::kTrue) {
      *transparent = true;
      return std::nullopt;
    }
    if (g.kind() != FormulaKind::kAtom) {
      return std::nullopt;
    }
    std::optional<std::uint32_t> column;
    std::optional<std::pair<std::uint32_t, std::uint32_t>> bound;
    for (std::size_t i = 0; i < g.terms().size(); ++i) {
      const Term& term = g.terms()[i];
      const auto position = static_cast<std::uint32_t>(i);
      if (term.is_constant()) {
        return std::nullopt;
      }
      if (term.name == v) {
        if (!column.has_value()) {
          column = position;
        }
      } else if (!IsBoundInScope(term.name)) {
        return std::nullopt;
      } else if (!bound.has_value()) {
        bound.emplace(position, ResolveVariable(term.name));
      }
    }
    *transparent = true;
    if (!column.has_value()) {
      return std::nullopt;
    }
    return GuardAtom{
        static_cast<std::uint32_t>(*signature_.FindRelation(g.relation_name())),
        *column, bound};
  }

  // Collects guards from the leading run of transparent conjuncts (walking
  // nested conjunctions in evaluation order, stopping at the first
  // non-transparent one). Returns false to signal the stop.
  bool CollectGuards(const Formula& g, const std::string& v,
                     std::vector<GuardAtom>* atoms) const {
    if (g.kind() == FormulaKind::kAnd) {
      for (const Formula& child : g.children()) {
        if (!CollectGuards(child, v, atoms)) {
          return false;
        }
      }
      return true;
    }
    bool transparent = false;
    std::optional<GuardAtom> atom = GuardOf(g, v, &transparent);
    if (atom.has_value()) {
      atoms->push_back(*atom);
    }
    return transparent;
  }

  // Quantifier pruning: restrict enumeration of ∃/∀/∃^{≥k} to the elements
  // that can satisfy every leading guard atom of the body (for ∀, of the
  // antecedent of a top-level implication). Elements outside a guard's
  // column make that guard — and with it the body (∃/∃^{≥k}) or the
  // antecedent (∀) — evaluate the same way a full scan would, without
  // errors: guards precede every conjunct that could error, so verdicts and
  // error classification are preserved exactly. The first guard atom with
  // a column bound to an enclosing quantifier drives a correlated guard;
  // otherwise all guard columns intersect into a static one.
  QuantifierGuard AnalyzePrune(const Formula& f) const {
    QuantifierGuard guard;
    guard.variable = f.variable();
    const Formula* g = &f.body();
    if (f.kind() == FormulaKind::kForall) {
      if (g->kind() != FormulaKind::kImplies) {
        return guard;
      }
      g = &g->child(0);
    }
    std::vector<GuardAtom> atoms;
    (void)CollectGuards(*g, f.variable(), &atoms);
    for (const GuardAtom& atom : atoms) {
      if (atom.bound.has_value()) {
        guard.kind = GuardKind::kCorrelated;
        guard.columns = {{atom.relation, atom.column}};
        guard.bound_column = atom.bound->first;
        guard.bound_slot = atom.bound->second;
        return guard;
      }
    }
    if (!atoms.empty()) {
      guard.kind = GuardKind::kStatic;
      for (const GuardAtom& atom : atoms) {
        guard.columns.emplace_back(atom.relation, atom.column);
      }
    }
    return guard;
  }

  std::uint32_t Emit(PlanNode node) {
    plan_->nodes.push_back(std::move(node));
    return static_cast<std::uint32_t>(plan_->nodes.size() - 1);
  }

  std::uint32_t CompileNode(const Formula& f) {
    PlanNode node;
    node.kind = f.kind();
    switch (f.kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        return Emit(std::move(node));
      case FormulaKind::kAtom:
        node.relation = static_cast<std::uint32_t>(
            *signature_.FindRelation(f.relation_name()));
        node.terms.reserve(f.terms().size());
        for (const Term& t : f.terms()) {
          node.terms.push_back(CompileTerm(t));
        }
        return Emit(std::move(node));
      case FormulaKind::kEqual:
        node.terms.push_back(CompileTerm(f.terms()[0]));
        node.terms.push_back(CompileTerm(f.terms()[1]));
        return Emit(std::move(node));
      case FormulaKind::kNot:
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies:
      case FormulaKind::kIff:
        node.children.reserve(f.child_count());
        for (const Formula& c : f.children()) {
          node.children.push_back(CompileNode(c));
        }
        return Emit(std::move(node));
      case FormulaKind::kExists:
      case FormulaKind::kForall:
      case FormulaKind::kCountExists: {
        node.slot = static_cast<std::uint32_t>(free_slots_.size() +
                                               scope_.size());
        slot_count_ = std::max(slot_count_, std::size_t{node.slot} + 1);
        if (f.kind() == FormulaKind::kCountExists) {
          node.count = f.count();
        }
        node.guard = static_cast<std::uint32_t>(plan_->guards.size());
        plan_->guards.push_back(AnalyzePrune(f));
        plan_->has_correlated = plan_->has_correlated ||
                                plan_->guards.back().kind ==
                                    GuardKind::kCorrelated;
        scope_.emplace_back(f.variable(), node.slot);
        node.children.push_back(CompileNode(f.body()));
        scope_.pop_back();
        return Emit(std::move(node));
      }
    }
    FMTK_CHECK(false) << "unreachable formula kind";
    return 0;
  }

  const Signature& signature_;
  Plan* plan_ = nullptr;
  std::vector<std::pair<std::string, std::uint32_t>> scope_;
  std::unordered_map<std::string, std::uint32_t> free_slots_;
  std::size_t slot_count_ = 0;
};

// Mutable per-evaluation (and per-thread) state: the flat slot environment,
// which free slots carry a value, the correlated guards' candidate buffers,
// a reusable tuple buffer for atom lookups, and local work counters.
struct EvalState {
  const Plan* plan;
  const Binding* binding;
  std::vector<Element> env;
  std::vector<unsigned char> has_value;  // Indexed by free-variable slot.
  // Indexed by plan node; sized to the plan when it has correlated guards.
  // A node's buffer is only rewritten by that node, and never while its
  // own enumeration is still reading it (a body cannot contain its node).
  std::vector<CandidateBuffer> buffers;
  Tuple scratch;
  EvalStats stats;
};

Status ResolveTerm(EvalState& st, const CompiledTerm& t, Element& out) {
  if (t.is_slot) {
    if (t.index < st.binding->free_count && !st.has_value[t.index]) {
      return Status::InvalidArgument("unbound variable: " + t.name);
    }
    out = st.env[t.index];
    return Status::OK();
  }
  const std::optional<Element>& value = st.binding->constants[t.index];
  if (!value.has_value()) {
    return Status::InvalidArgument("constant " + t.name +
                                   " is uninterpreted in this structure");
  }
  out = *value;
  return Status::OK();
}

// The elements quantifier node `idx` enumerates, ascending; nullptr = the
// whole domain. A correlated guard reads its driving atom's postings at the
// value the enclosing quantifier bound and keeps the quantified variable's
// column: a superset of the elements that satisfy the atom, deduplicated
// (several rows can share the column value at arity > 2) and in ascending
// order, so enumeration meets the first decisive element a full scan would.
// The list is rebuilt only when the bound value changes: an inner loop that
// does not rebind it (∀x ∀y ∃z E(x,z) ...) reuses it.
const std::vector<Element>* Candidates(EvalState& st, std::uint32_t idx,
                                       const PlanNode& n) {
  const NodeCandidates& cand = st.binding->prune[idx];
  if (cand.postings == nullptr) {
    return cand.values;
  }
  const QuantifierGuard& guard = st.plan->guards[n.guard];
  const Element key = st.env[guard.bound_slot];
  CandidateBuffer& buffer = st.buffers[idx];
  std::vector<Element>& out = buffer.values;
  if (buffer.valid && buffer.key == key) {
    return &out;
  }
  buffer.valid = true;
  buffer.key = key;
  const std::uint32_t column = guard.columns[0].second;
  const Relation& relation = *cand.relation;
  const Relation::ColumnIndex::View view = cand.postings->Find(key);
  out.clear();
  bool ascending = true;
  const auto take = [&](std::uint32_t row) {
    const Element e = relation.TupleData(row)[column];
    ascending = ascending && (out.empty() || out.back() < e);
    out.push_back(e);
  };
  for (std::size_t k = 0; k < view.bulk_size; ++k) {
    take(view.bulk[k]);
  }
  if (view.tail != nullptr) {
    for (std::uint32_t row : *view.tail) {
      take(row);
    }
  }
  if (!ascending) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return &out;
}

Result<bool> EvalNode(EvalState& st, std::uint32_t idx) {
  ++st.stats.node_visits;
  const PlanNode& n = st.plan->nodes[idx];
  switch (n.kind) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      ++st.stats.atom_lookups;
      st.scratch.clear();
      for (const CompiledTerm& t : n.terms) {
        Element e;
        Status s = ResolveTerm(st, t, e);
        if (!s.ok()) {
          return s;
        }
        st.scratch.push_back(e);
      }
      return st.binding->relations[n.relation]->Contains(st.scratch);
    }
    case FormulaKind::kEqual: {
      ++st.stats.atom_lookups;
      Element a;
      Status s = ResolveTerm(st, n.terms[0], a);
      if (!s.ok()) {
        return s;
      }
      Element b;
      s = ResolveTerm(st, n.terms[1], b);
      if (!s.ok()) {
        return s;
      }
      return a == b;
    }
    case FormulaKind::kNot: {
      FMTK_ASSIGN_OR_RETURN(bool inner, EvalNode(st, n.children[0]));
      return !inner;
    }
    case FormulaKind::kAnd: {
      const std::size_t count = n.children.size();
      for (std::size_t i = 0; i < count; ++i) {
        FMTK_ASSIGN_OR_RETURN(bool value, EvalNode(st, n.children[i]));
        if (!value) {
          if (i + 1 < count) {
            ++st.stats.short_circuits;
          }
          return false;
        }
      }
      return true;
    }
    case FormulaKind::kOr: {
      const std::size_t count = n.children.size();
      for (std::size_t i = 0; i < count; ++i) {
        FMTK_ASSIGN_OR_RETURN(bool value, EvalNode(st, n.children[i]));
        if (value) {
          if (i + 1 < count) {
            ++st.stats.short_circuits;
          }
          return true;
        }
      }
      return false;
    }
    case FormulaKind::kImplies: {
      FMTK_ASSIGN_OR_RETURN(bool a, EvalNode(st, n.children[0]));
      if (!a) {
        ++st.stats.short_circuits;
        return true;
      }
      return EvalNode(st, n.children[1]);
    }
    case FormulaKind::kIff: {
      FMTK_ASSIGN_OR_RETURN(bool a, EvalNode(st, n.children[0]));
      FMTK_ASSIGN_OR_RETURN(bool b, EvalNode(st, n.children[1]));
      return a == b;
    }
    case FormulaKind::kCountExists:
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // ∃ decides on the first true body, ∀ on the first false one, ∃^{≥k}
      // on the k-th true one; an error decides wherever it occurs.
      const bool counting = n.kind == FormulaKind::kCountExists;
      const bool is_exists = n.kind != FormulaKind::kForall;
      std::size_t witnesses = 0;
      auto decides = [&](Element d) -> std::optional<Result<bool>> {
        ++st.stats.quantifier_instantiations;
        st.env[n.slot] = d;
        Result<bool> r = EvalNode(st, n.children[0]);
        if (!r.ok()) {
          return r;
        }
        if (*r == is_exists && (!counting || ++witnesses >= n.count)) {
          return is_exists;
        }
        return std::nullopt;
      };
      if (const std::vector<Element>* candidates = Candidates(st, idx, n)) {
        ++st.stats.index_hits;
        for (Element d : *candidates) {
          if (std::optional<Result<bool>> decided = decides(d)) {
            return *std::move(decided);
          }
        }
      } else {
        for (std::size_t d = 0; d < st.binding->domain; ++d) {
          if (std::optional<Result<bool>> decided =
                  decides(static_cast<Element>(d))) {
            return *std::move(decided);
          }
        }
      }
      return counting ? witnesses >= n.count : !is_exists;
    }
  }
  FMTK_CHECK(false) << "unreachable formula kind";
  return false;
}

std::shared_ptr<const Binding> MakeBinding(const Plan& plan,
                                           const Structure& structure) {
  auto binding = std::make_shared<Binding>();
  binding->structure = &structure;
  binding->domain = structure.domain_size();
  binding->free_count = plan.free_vars.size();
  const Signature& sig = structure.signature();
  binding->relations.reserve(sig.relation_count());
  for (std::size_t i = 0; i < sig.relation_count(); ++i) {
    binding->relations.push_back(&structure.relation(i));
  }
  binding->constants.reserve(sig.constant_count());
  for (std::size_t i = 0; i < sig.constant_count(); ++i) {
    binding->constants.push_back(structure.constant(i));
  }
  binding->prune.resize(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (!IsQuantifier(node.kind)) {
      continue;
    }
    // Built here, once, so parallel evaluation reads lock-free.
    const QuantifierGuard& guard = plan.guards[node.guard];
    NodeCandidates& cand = binding->prune[i];
    switch (guard.kind) {
      case GuardKind::kNone:
        break;
      case GuardKind::kCorrelated:
        cand.relation = binding->relations[guard.columns[0].first];
        cand.postings = &cand.relation->column_index(guard.bound_column);
        break;
      case GuardKind::kStatic: {
        // A single guard aliases the column's value list; several guards
        // AND their columns' bitsets and materialise the surviving
        // elements (ascending, matching the order a single-guard scan
        // uses).
        if (guard.columns.size() == 1) {
          const auto& [rel, col] = guard.columns[0];
          cand.values = &binding->relations[rel]->column_index(col).values;
          break;
        }
        ElementBitset surviving;
        for (std::size_t g = 0; g < guard.columns.size(); ++g) {
          const auto& [rel, col] = guard.columns[g];
          const ElementBitset column_set = ElementBitset::FromList(
              binding->domain,
              binding->relations[rel]->column_index(col).values);
          if (g == 0) {
            surviving = column_set;
          } else {
            surviving.AndWith(column_set);
          }
        }
        surviving.AppendSetBits(cand.storage);
        cand.values = &cand.storage;
        break;
      }
    }
  }
  return binding;
}

}  // namespace

}  // namespace internal_eval

using internal_eval::Binding;
using internal_eval::EvalState;
using internal_eval::Plan;
using internal_eval::PlanNode;

Result<CompiledFormula> CompiledFormula::Compile(const Formula& f,
                                                 const Signature& signature) {
  // The static analyzer is the checked front door: vocabulary errors
  // (FMTK001-003) reject compilation with the same SignatureMismatch code
  // CheckAgainstSignature used, but with the full diagnostic list.
  FoAnalyzerOptions analyzer_options;
  analyzer_options.signature = &signature;
  analyzer_options.profile = FoProfile::kModelCheck;
  FMTK_RETURN_IF_ERROR(AnalyzeFormula(f, analyzer_options).status());
  internal_eval::Compiler compiler(signature);
  return CompiledFormula(compiler.Run(f));
}

const std::vector<std::string>& CompiledFormula::free_variables() const {
  return plan_->free_vars;
}

std::size_t CompiledFormula::slot_count() const { return plan_->slot_count; }

const std::vector<QuantifierGuard>& CompiledFormula::guards() const {
  return plan_->guards;
}

const Signature& CompiledFormula::signature() const { return plan_->signature; }

const char* GuardKindName(GuardKind kind) {
  static const char* const kNames[] = {"none", "static", "correlated"};
  return kNames[static_cast<std::size_t>(kind)];
}

FanoutEstimate EstimateFanout(const CompiledFormula& compiled,
                              const Structure& structure) {
  const Plan& plan = *compiled.plan_;
  FanoutEstimate est;
  const auto distinct = [&](std::uint32_t rel, std::uint32_t col) {
    return static_cast<double>(
        structure.relation(rel).column_index(col).values.size());
  };
  est.fanout.reserve(plan.guards.size());
  for (const QuantifierGuard& guard : plan.guards) {
    double fanout = static_cast<double>(structure.domain_size());
    if (guard.kind == GuardKind::kStatic) {
      for (const auto& [rel, col] : guard.columns) {
        fanout = std::min(fanout, distinct(rel, col));
      }
    } else if (guard.kind == GuardKind::kCorrelated) {
      const std::uint32_t rel = guard.columns[0].first;
      const double rows = static_cast<double>(structure.relation(rel).size());
      const double keys = distinct(rel, guard.bound_column);
      fanout = keys == 0.0 ? 0.0 : rows / keys;
    }
    est.fanout.push_back(fanout);
  }
  // visits(node) = the product of its enclosing quantifiers' fan-outs.
  std::vector<std::pair<std::uint32_t, double>> stack = {{plan.root, 1.0}};
  while (!stack.empty()) {
    const auto [idx, weight] = stack.back();
    stack.pop_back();
    est.node_visits += weight;
    const PlanNode& node = plan.nodes[idx];
    double inner = weight;
    if (internal_eval::IsQuantifier(node.kind)) {
      inner *= est.fanout[node.guard];
      est.instantiations += inner;
    }
    for (std::uint32_t child : node.children) {
      stack.emplace_back(child, inner);
    }
  }
  return est;
}

Result<CompiledEvaluator> CompiledEvaluator::Bind(CompiledFormula plan,
                                                  const Structure& structure,
                                                  ParallelPolicy policy) {
  if (!(structure.signature() == plan.plan_->signature)) {
    return Status::SignatureMismatch(
        "structure signature differs from the signature the formula was "
        "compiled against");
  }
  std::shared_ptr<const Binding> binding =
      internal_eval::MakeBinding(*plan.plan_, structure);
  return CompiledEvaluator(std::move(plan), std::move(binding), policy);
}

Result<CompiledEvaluator> CompiledEvaluator::Compile(const Structure& structure,
                                                     const Formula& f,
                                                     ParallelPolicy policy) {
  FMTK_ASSIGN_OR_RETURN(CompiledFormula plan,
                        CompiledFormula::Compile(f, structure.signature()));
  std::shared_ptr<const Binding> binding =
      internal_eval::MakeBinding(*plan.plan_, structure);
  return CompiledEvaluator(std::move(plan), std::move(binding), policy);
}

const std::vector<std::string>& CompiledEvaluator::free_variables() const {
  return plan_.free_variables();
}

Result<bool> CompiledEvaluator::Evaluate(const VarAssignment& assignment) {
  const Plan& plan = *plan_.plan_;
  std::vector<Element> env(plan.slot_count, 0);
  std::vector<unsigned char> has_value(plan.free_vars.size(), 0);
  for (std::size_t i = 0; i < plan.free_vars.size(); ++i) {
    auto it = assignment.find(plan.free_vars[i]);
    if (it != assignment.end()) {
      env[i] = it->second;
      has_value[i] = 1;
    }
  }
  return Run(std::move(env), std::move(has_value));
}

Result<bool> CompiledEvaluator::EvaluateRow(const std::vector<Element>& row) {
  const Plan& plan = *plan_.plan_;
  FMTK_CHECK(row.size() == plan.free_vars.size())
      << "row size " << row.size() << " does not match "
      << plan.free_vars.size() << " free variables";
  std::vector<Element> env(plan.slot_count, 0);
  std::copy(row.begin(), row.end(), env.begin());
  std::vector<unsigned char> has_value(plan.free_vars.size(), 1);
  return Run(std::move(env), std::move(has_value));
}

Result<bool> CompiledEvaluator::Run(std::vector<Element> env,
                                    std::vector<unsigned char> has_value) {
  const Plan& plan = *plan_.plan_;
  const Binding& binding = *binding_;
  const PlanNode& root = plan.nodes[plan.root];

  const bool parallel_shape =
      policy_.enabled && plan.free_vars.empty() &&
      (root.kind == FormulaKind::kExists ||
       root.kind == FormulaKind::kForall);
  if (parallel_shape) {
    const std::vector<Element>* candidates = binding.prune[plan.root].values;
    const std::size_t candidate_count =
        candidates != nullptr ? candidates->size() : binding.domain;
    std::size_t threads = policy_.num_threads != 0
                              ? policy_.num_threads
                              : std::max<std::size_t>(
                                    1, std::thread::hardware_concurrency());
    threads = std::min(threads, candidate_count);
    if (candidate_count >= policy_.min_domain && threads > 1) {
      const bool is_exists = root.kind == FormulaKind::kExists;
      ++stats_.node_visits;
      if (candidates != nullptr) {
        ++stats_.index_hits;
      }

      // Each worker scans a contiguous chunk in ascending order and records
      // its first decisive element (witness/counterexample or error). The
      // globally smallest decisive index wins, reproducing the sequential
      // left-to-right semantics; `best` lets workers abandon elements that
      // can no longer matter.
      struct Outcome {
        std::size_t index = SIZE_MAX;
        std::optional<Result<bool>> result;
        EvalStats stats;
      };
      std::vector<Outcome> outcomes(threads);
      std::atomic<std::size_t> best{SIZE_MAX};
      const std::size_t chunk = (candidate_count + threads - 1) / threads;
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          EvalState st{&plan, &binding, env, has_value, {}, {}, {}};
          if (plan.has_correlated) {
            st.buffers.resize(plan.nodes.size());
          }
          const std::size_t begin = t * chunk;
          const std::size_t end = std::min(begin + chunk, candidate_count);
          for (std::size_t k = begin; k < end; ++k) {
            if (best.load(std::memory_order_relaxed) < k) {
              break;
            }
            const Element d = candidates != nullptr ? (*candidates)[k]
                                                    : static_cast<Element>(k);
            ++st.stats.quantifier_instantiations;
            st.env[root.slot] = d;
            Result<bool> r = internal_eval::EvalNode(st, root.children[0]);
            if (!r.ok() || *r == is_exists) {
              outcomes[t].index = k;
              outcomes[t].result = std::move(r);
              std::size_t current = best.load();
              while (k < current &&
                     !best.compare_exchange_weak(current, k)) {
              }
              break;
            }
          }
          outcomes[t].stats = st.stats;
        });
      }
      for (std::thread& w : workers) {
        w.join();
      }
      const Outcome* decisive = nullptr;
      for (const Outcome& o : outcomes) {
        stats_ += o.stats;
        if (o.result.has_value() &&
            (decisive == nullptr || o.index < decisive->index)) {
          decisive = &o;
        }
      }
      if (decisive == nullptr) {
        return !is_exists;
      }
      if (!decisive->result->ok()) {
        return decisive->result->status();
      }
      return is_exists;
    }
  }

  if (plan.has_correlated && buffers_.empty()) {
    buffers_.resize(plan.nodes.size());
  }
  EvalState st{&plan,
               &binding,
               std::move(env),
               std::move(has_value),
               std::move(buffers_),
               {},
               {}};
  Result<bool> result = internal_eval::EvalNode(st, plan.root);
  buffers_ = std::move(st.buffers);
  stats_ += st.stats;
  return result;
}

}  // namespace fmtk
