#include "logic/formula.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace fmtk {

using internal_logic::FormulaNode;

Formula::Formula() : Formula(True()) {}

Formula Formula::Make(FormulaNode node) {
  for (const Formula& c : node.children) {
    node.height = std::max(node.height, c.height() + 1);
  }
  return Formula(std::make_shared<const FormulaNode>(std::move(node)));
}

const std::string& Formula::relation_name() const {
  FMTK_CHECK(kind() == FormulaKind::kAtom) << "relation_name() on non-atom";
  return node_->relation;
}

const std::vector<Term>& Formula::terms() const {
  FMTK_CHECK(kind() == FormulaKind::kAtom || kind() == FormulaKind::kEqual)
      << "terms() on formula without terms";
  return node_->terms;
}

const Formula& Formula::child(std::size_t i) const {
  FMTK_CHECK(i < node_->children.size()) << "child index out of range";
  return node_->children[i];
}

std::size_t Formula::child_count() const { return node_->children.size(); }

const std::vector<Formula>& Formula::children() const {
  return node_->children;
}

const std::string& Formula::variable() const {
  FMTK_CHECK(is_quantifier()) << "variable() on non-quantifier";
  return node_->variable;
}

const Formula& Formula::body() const {
  FMTK_CHECK(is_quantifier()) << "body() on non-quantifier";
  return node_->children[0];
}

std::size_t Formula::count() const {
  FMTK_CHECK(kind() == FormulaKind::kCountExists)
      << "count() on non-counting quantifier";
  return node_->count;
}

bool Formula::EqualsNode(const Formula& other) const {
  if (node_ == other.node_) {
    return true;
  }
  const FormulaNode& a = *node_;
  const FormulaNode& b = *other.node_;
  if (a.kind != b.kind || a.relation != b.relation || a.terms != b.terms ||
      a.variable != b.variable || a.count != b.count ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    if (!(a.children[i] == b.children[i])) {
      return false;
    }
  }
  return true;
}

std::size_t Formula::NodeCount() const {
  std::size_t total = 1;
  for (const Formula& c : node_->children) {
    total += c.NodeCount();
  }
  return total;
}

Formula Formula::True() { return Make({FormulaKind::kTrue, {}, {}, {}, {}}); }

Formula Formula::False() {
  return Make({FormulaKind::kFalse, {}, {}, {}, {}});
}

Formula Formula::Atom(std::string relation, std::vector<Term> terms) {
  return Make(
      {FormulaKind::kAtom, std::move(relation), std::move(terms), {}, {}});
}

Formula Formula::Equal(Term a, Term b) {
  return Make(
      {FormulaKind::kEqual, {}, {std::move(a), std::move(b)}, {}, {}});
}

Formula Formula::Not(Formula f) {
  return Make({FormulaKind::kNot, {}, {}, {std::move(f)}, {}});
}

Formula Formula::And(std::vector<Formula> fs) {
  return Make({FormulaKind::kAnd, {}, {}, std::move(fs), {}});
}

Formula Formula::And(Formula a, Formula b) {
  return And(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Formula::Or(std::vector<Formula> fs) {
  return Make({FormulaKind::kOr, {}, {}, std::move(fs), {}});
}

Formula Formula::Or(Formula a, Formula b) {
  return Or(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Formula::Implies(Formula a, Formula b) {
  return Make(
      {FormulaKind::kImplies, {}, {}, {std::move(a), std::move(b)}, {}});
}

Formula Formula::Iff(Formula a, Formula b) {
  return Make({FormulaKind::kIff, {}, {}, {std::move(a), std::move(b)}, {}});
}

Formula Formula::Exists(std::string variable, Formula body) {
  return Make({FormulaKind::kExists,
               {},
               {},
               {std::move(body)},
               std::move(variable)});
}

Formula Formula::Forall(std::string variable, Formula body) {
  return Make({FormulaKind::kForall,
               {},
               {},
               {std::move(body)},
               std::move(variable)});
}

Formula Formula::CountExists(std::size_t count, std::string variable,
                             Formula body) {
  FMTK_CHECK(count >= 1) << "counting quantifier threshold must be >= 1";
  internal_logic::FormulaNode node{FormulaKind::kCountExists,
                                   {},
                                   {},
                                   {std::move(body)},
                                   std::move(variable)};
  node.count = count;
  return Make(std::move(node));
}

Formula Formula::Exists(const std::vector<std::string>& variables,
                        Formula body) {
  Formula out = std::move(body);
  for (auto it = variables.rbegin(); it != variables.rend(); ++it) {
    out = Exists(*it, std::move(out));
  }
  return out;
}

Formula Formula::Forall(const std::vector<std::string>& variables,
                        Formula body) {
  Formula out = std::move(body);
  for (auto it = variables.rbegin(); it != variables.rend(); ++it) {
    out = Forall(*it, std::move(out));
  }
  return out;
}

Formula Formula::AllDistinct(const std::vector<std::string>& variables) {
  std::vector<Formula> parts;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    for (std::size_t j = i + 1; j < variables.size(); ++j) {
      parts.push_back(Not(Equal(V(variables[i]), V(variables[j]))));
    }
  }
  return And(std::move(parts));
}

namespace {

const char* TermText(const Term& t) { return t.name.c_str(); }

int Precedence(FormulaKind kind) {
  switch (kind) {
    case FormulaKind::kIff:
      return 1;
    case FormulaKind::kImplies:
      return 2;
    case FormulaKind::kOr:
      return 3;
    case FormulaKind::kAnd:
      return 4;
    case FormulaKind::kNot:
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kCountExists:
      return 5;
    default:
      return 6;
  }
}

// A formula "extends right": its textual form ends in an open scope that
// would swallow any operator printed after it (quantifier bodies reach as far
// right as possible; negation passes the property through).
bool ExtendsRight(const Formula& f) {
  switch (f.kind()) {
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kCountExists:
      return true;
    case FormulaKind::kNot:
      return ExtendsRight(f.child(0));
    default:
      return false;
  }
}

// `protect_right` is set when more operator text follows this subformula, so
// a right-extending form must be parenthesized even if precedence allows it.
void Print(const Formula& f, int parent_precedence, bool protect_right,
           std::string& out) {
  const int prec = Precedence(f.kind());
  const bool parens =
      prec < parent_precedence || (protect_right && ExtendsRight(f));
  if (parens) {
    protect_right = false;
  }
  if (parens) {
    out += "(";
  }
  switch (f.kind()) {
    case FormulaKind::kTrue:
      out += "true";
      break;
    case FormulaKind::kFalse:
      out += "false";
      break;
    case FormulaKind::kAtom:
      out += f.relation_name();
      out += "(";
      for (std::size_t i = 0; i < f.terms().size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += TermText(f.terms()[i]);
      }
      out += ")";
      break;
    case FormulaKind::kEqual:
      out += TermText(f.terms()[0]);
      out += " = ";
      out += TermText(f.terms()[1]);
      break;
    case FormulaKind::kNot:
      out += "!";
      Print(f.child(0), prec + 1, protect_right, out);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      if (f.child_count() == 0) {
        out += f.kind() == FormulaKind::kAnd ? "true" : "false";
        break;
      }
      const char* op = f.kind() == FormulaKind::kAnd ? " & " : " | ";
      for (std::size_t i = 0; i < f.child_count(); ++i) {
        if (i > 0) {
          out += op;
        }
        const bool last = (i + 1 == f.child_count());
        Print(f.child(i), prec + 1, last ? protect_right : true, out);
      }
      break;
    }
    case FormulaKind::kImplies:
      Print(f.child(0), prec + 1, true, out);
      out += " -> ";
      Print(f.child(1), prec, protect_right, out);  // Right-associative.
      break;
    case FormulaKind::kIff:
      Print(f.child(0), prec + 1, true, out);
      out += " <-> ";
      Print(f.child(1), prec + 1, protect_right, out);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      out += f.kind() == FormulaKind::kExists ? "exists " : "forall ";
      out += f.variable();
      out += ". ";
      Print(f.body(), prec, false, out);
      break;
    case FormulaKind::kCountExists:
      out += "atleast ";
      out += std::to_string(f.count());
      out += " ";
      out += f.variable();
      out += ". ";
      Print(f.body(), prec, false, out);
      break;
  }
  if (parens) {
    out += ")";
  }
}

}  // namespace

std::string Formula::ToString() const {
  std::string out;
  Print(*this, 0, false, out);
  return out;
}

}  // namespace fmtk
