#ifndef FMTK_LOGIC_FORMULA_H_
#define FMTK_LOGIC_FORMULA_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fmtk {

/// A first-order term. The survey's convention (relational signatures) means
/// terms are variables or constants only — no function applications.
struct Term {
  enum class Kind { kVariable, kConstant };

  Kind kind = Kind::kVariable;
  std::string name;

  static Term Var(std::string name) {
    return Term{Kind::kVariable, std::move(name)};
  }
  static Term Const(std::string name) {
    return Term{Kind::kConstant, std::move(name)};
  }

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }

  friend bool operator==(const Term&, const Term&) = default;
};

enum class FormulaKind {
  kTrue,
  kFalse,
  kAtom,     // R(t1, ..., tk)
  kEqual,    // t1 = t2
  kNot,
  kAnd,      // n-ary, n >= 0 (empty = true)
  kOr,       // n-ary, n >= 0 (empty = false)
  kImplies,  // binary
  kIff,      // binary
  kExists,
  kForall,
  kCountExists,  // ∃^{>=k} x φ — the counting quantifier of FO(Cnt), the
                 // survey's pointer for aggregate queries. k >= 1.
};

class Formula;

namespace internal_logic {
struct FormulaNode {
  FormulaKind kind;
  std::string relation;            // kAtom: relation symbol name.
  std::vector<Term> terms;         // kAtom (arity many), kEqual (2).
  std::vector<Formula> children;   // connectives and quantifier bodies.
  std::string variable;            // quantifiers.
  std::size_t count = 0;           // kCountExists: the threshold k.
  std::size_t height = 1;          // Set by Formula::Make.
};
}  // namespace internal_logic

/// An immutable first-order formula over a relational vocabulary. Cheap to
/// copy (shared subtree representation). Build with the factories below or
/// parse with ParseFormula() from logic/parser.h.
class Formula {
 public:
  /// Formulas start as "true"; use the factories for anything else.
  Formula();

  FormulaKind kind() const { return node_->kind; }

  bool is_atomic() const {
    return kind() == FormulaKind::kTrue || kind() == FormulaKind::kFalse ||
           kind() == FormulaKind::kAtom || kind() == FormulaKind::kEqual;
  }

  /// Accessors; calling one that does not match kind() is a fatal error.
  const std::string& relation_name() const;     // kAtom
  const std::vector<Term>& terms() const;       // kAtom, kEqual
  const Formula& child(std::size_t i) const;    // any with children
  std::size_t child_count() const;
  const std::vector<Formula>& children() const;
  const std::string& variable() const;          // quantifiers
  const Formula& body() const;                  // quantifiers
  std::size_t count() const;                    // kCountExists

  /// True for all three quantifier kinds.
  bool is_quantifier() const {
    return kind() == FormulaKind::kExists || kind() == FormulaKind::kForall ||
           kind() == FormulaKind::kCountExists;
  }

  /// Structural equality (not logical equivalence).
  friend bool operator==(const Formula& a, const Formula& b) {
    return a.EqualsNode(b);
  }

  /// Human-readable text, re-parsable by ParseFormula.
  std::string ToString() const;

  /// Number of AST nodes (for size accounting in benches).
  std::size_t NodeCount() const;

  /// Nodes on the longest root-to-leaf path (an atom has height 1): the
  /// recursion depth of every recursive pass over the formula. O(1).
  std::size_t height() const { return node_->height; }

  /// Stable identity of the shared AST node — usable as a memoization key
  /// (two Formulas sharing a subtree compare equal here; structurally equal
  /// but separately built formulas do not).
  const void* node_identity() const { return node_.get(); }

  // --- Factories -----------------------------------------------------------

  static Formula True();
  static Formula False();
  static Formula Atom(std::string relation, std::vector<Term> terms);
  static Formula Equal(Term a, Term b);
  static Formula Not(Formula f);
  static Formula And(std::vector<Formula> fs);
  static Formula And(Formula a, Formula b);
  static Formula Or(std::vector<Formula> fs);
  static Formula Or(Formula a, Formula b);
  static Formula Implies(Formula a, Formula b);
  static Formula Iff(Formula a, Formula b);
  static Formula Exists(std::string variable, Formula body);
  static Formula Forall(std::string variable, Formula body);

  /// ∃^{>=k} x φ: "at least k elements x satisfy φ". k must be >= 1.
  /// With k = 1 this is logically ∃, but remains a distinct node.
  static Formula CountExists(std::size_t count, std::string variable,
                             Formula body);

  /// Quantifies over several variables at once, left to right:
  /// Exists({"x","y"}, f) = ∃x ∃y f.
  static Formula Exists(const std::vector<std::string>& variables,
                        Formula body);
  static Formula Forall(const std::vector<std::string>& variables,
                        Formula body);

  /// ∧_{i<j} v_i != v_j — the "all distinct" gadget used throughout the
  /// survey's formulas (λ_n, extension axioms, scattered sequences).
  static Formula AllDistinct(const std::vector<std::string>& variables);

 private:
  friend struct internal_logic::FormulaNode;
  explicit Formula(std::shared_ptr<const internal_logic::FormulaNode> node)
      : node_(std::move(node)) {}

  bool EqualsNode(const Formula& other) const;

  static Formula Make(internal_logic::FormulaNode node);

  std::shared_ptr<const internal_logic::FormulaNode> node_;
};

/// Convenience term factories: V("x"), C("c").
inline Term V(std::string name) { return Term::Var(std::move(name)); }
inline Term C(std::string name) { return Term::Const(std::move(name)); }

}  // namespace fmtk

#endif  // FMTK_LOGIC_FORMULA_H_
