#ifndef FMTK_LOGIC_PARSER_H_
#define FMTK_LOGIC_PARSER_H_

#include <cstddef>
#include <string_view>
#include <unordered_map>

#include "base/result.h"
#include "base/source_span.h"
#include "logic/formula.h"
#include "structures/signature.h"

namespace fmtk {

/// Byte spans of the parsed subformulas, keyed by Formula::node_identity().
/// Formula nodes are freshly allocated per parse, so identities are unique;
/// nodes synthesized by desugaring (multi-variable quantifier blocks,
/// "x != y") carry the span of the surface construct that produced them.
/// Transform results (NNF, substitution, ...) are new nodes with no spans.
class FormulaSpans {
 public:
  void Set(const Formula& f, SourceSpan span) {
    by_node_[f.node_identity()] = span;
  }

  /// The span of `f`'s node, or an invalid span when it was not parsed.
  SourceSpan Lookup(const Formula& f) const {
    auto it = by_node_.find(f.node_identity());
    return it == by_node_.end() ? SourceSpan{} : it->second;
  }

  bool empty() const { return by_node_.empty(); }
  std::size_t size() const { return by_node_.size(); }

 private:
  std::unordered_map<const void*, SourceSpan> by_node_;
};

/// A parse result that keeps the source locations: the analyzer
/// (analysis/fo_analyzer.h) uses them to point diagnostics at the text.
struct ParsedFormula {
  Formula formula;
  FormulaSpans spans;
};

/// The tallest formula (Formula::height) ParseFormula admits. The text may
/// nest at most twice as many parentheses, negations, quantifiers and "->"
/// right operands around any point: ToString adds at most one parenthesis
/// per node, so every formula within the cap round-trips. Deeper input is
/// a ParseError at the offset where the limit is crossed. The cap keeps the
/// parser and every recursive pass over an admitted formula (printing,
/// canonicalization, analysis, compilation, evaluation, destruction) well
/// inside a query-server worker's 8 MB thread stack.
inline constexpr std::size_t kMaxFormulaNesting = 128;

/// Parses the toolkit's FO surface syntax:
///
///   formula := iff
///   iff     := implies ("<->" implies)*
///   implies := or ("->" implies)?                    (right-associative)
///   or      := and (("|" | "or") and)*
///   and     := unary (("&" | "and") unary)*
///   unary   := ("!" | "~" | "not") unary
///            | ("exists" | "ex" | "forall" | "all") name+ "." formula
///            | primary
///   primary := "true" | "false" | "(" formula ")" | atom
///   atom    := name "(" term ("," term)* ")"         relation atom
///            | name                                   0-ary relation atom
///            | term "=" term | term "!=" term         (in)equality
///            | term "<" term                          atom of relation "<"
///
/// A name used as a term denotes the signature's constant of that name when
/// one exists (a signature must be supplied to use constants), and a
/// variable otherwise. Example:
///   "forall x. exists y. E(x,y) & !(x = y)"
Result<Formula> ParseFormula(std::string_view text,
                             const Signature* signature = nullptr);

/// ParseFormula plus the byte span of every subformula.
Result<ParsedFormula> ParseFormulaWithSpans(
    std::string_view text, const Signature* signature = nullptr);

}  // namespace fmtk

#endif  // FMTK_LOGIC_PARSER_H_
