#include "datalog/program.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "analysis/datalog_analyzer.h"
#include "base/string_util.h"

namespace fmtk {

std::string DlAtom::ToString() const {
  std::string out = negated ? "!" + predicate + "(" : predicate + "(";
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += terms[i].is_variable ? terms[i].variable
                                : std::to_string(terms[i].value);
  }
  out += ")";
  return out;
}

std::string DlRule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += body[i].ToString();
    }
  }
  out += ".";
  return out;
}

Status DatalogProgram::Validate() const {
  // The signature-independent part of the static analysis: inconsistent
  // arities (FMTK101) and unbound head variables (FMTK102) are the hard
  // errors; fact-schema warnings (FMTK107) do not fail validation.
  return AnalyzeProgram(*this).status();
}

std::string DatalogProgram::ToString() const {
  std::string out;
  for (const DlRule& rule : rules_) {
    out += rule.ToString();
    out += "\n";
  }
  return out;
}

namespace {

DlAtom MakeAtom(std::string predicate, std::vector<DlTerm> terms) {
  DlAtom atom;
  atom.predicate = std::move(predicate);
  atom.terms = std::move(terms);
  return atom;
}

DlRule MakeRule(DlAtom head, std::vector<DlAtom> body) {
  DlRule rule;
  rule.head = std::move(head);
  rule.body = std::move(body);
  return rule;
}

}  // namespace

DatalogProgram DatalogProgram::TransitiveClosure() {
  DatalogProgram p;
  p.AddRule(MakeRule(MakeAtom("tc", {DlTerm::Var("x"), DlTerm::Var("y")}),
                     {MakeAtom("E", {DlTerm::Var("x"), DlTerm::Var("y")})}));
  p.AddRule(MakeRule(MakeAtom("tc", {DlTerm::Var("x"), DlTerm::Var("y")}),
                     {MakeAtom("E", {DlTerm::Var("x"), DlTerm::Var("z")}),
                      MakeAtom("tc", {DlTerm::Var("z"), DlTerm::Var("y")})}));
  return p;
}

DatalogProgram DatalogProgram::NonlinearTransitiveClosure() {
  DatalogProgram p;
  p.AddRule(MakeRule(MakeAtom("tc", {DlTerm::Var("x"), DlTerm::Var("y")}),
                     {MakeAtom("E", {DlTerm::Var("x"), DlTerm::Var("y")})}));
  p.AddRule(MakeRule(MakeAtom("tc", {DlTerm::Var("x"), DlTerm::Var("y")}),
                     {MakeAtom("tc", {DlTerm::Var("x"), DlTerm::Var("z")}),
                      MakeAtom("tc", {DlTerm::Var("z"), DlTerm::Var("y")})}));
  return p;
}

DatalogProgram DatalogProgram::SameGeneration() {
  DatalogProgram p;
  p.AddRule(MakeRule(MakeAtom("sg", {DlTerm::Var("x"), DlTerm::Var("x")}),
                     {}));
  p.AddRule(MakeRule(MakeAtom("sg", {DlTerm::Var("x"), DlTerm::Var("y")}),
                     {MakeAtom("E", {DlTerm::Var("u"), DlTerm::Var("x")}),
                      MakeAtom("E", {DlTerm::Var("v"), DlTerm::Var("y")}),
                      MakeAtom("sg", {DlTerm::Var("u"), DlTerm::Var("v")})}));
  return p;
}

namespace {

class DlParser {
 public:
  explicit DlParser(std::string_view text) : text_(text) {}

  Result<DatalogProgram> Parse(bool validate) {
    DatalogProgram program;
    SkipSpace();
    while (pos_ < text_.size()) {
      FMTK_ASSIGN_OR_RETURN(DlRule rule, ParseRule());
      program.AddRule(std::move(rule));
      SkipSpace();
    }
    if (validate) {
      FMTK_RETURN_IF_ERROR(program.Validate());
    }
    return program;
  }

 private:
  /// Whitespace and '%' line comments (Prolog style) separate tokens.
  void SkipSpace() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " + std::to_string(pos_));
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '\'')) {
      ++pos_;
    }
    if (start == pos_) {
      return Error("expected an identifier");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  /// True when the cursor sits on a negation marker: '!' or the keyword
  /// 'not' followed by whitespace and an identifier start ("not" alone can
  /// still be a 0-ary predicate, "nota(x)" an ordinary atom).
  bool AtNegationMarker() {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '!') {
      return true;
    }
    if (pos_ + 3 < text_.size() && text_.compare(pos_, 3, "not") == 0 &&
        std::isspace(static_cast<unsigned char>(text_[pos_ + 3]))) {
      std::size_t next = pos_ + 3;
      while (next < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[next]))) {
        ++next;
      }
      return next < text_.size() &&
             (std::isalpha(static_cast<unsigned char>(text_[next])) ||
              text_[next] == '_' || text_[next] == '\'');
    }
    return false;
  }

  Result<DlAtom> ParseBodyAtom() {
    SkipSpace();
    const std::size_t start = pos_;
    bool negated = false;
    if (AtNegationMarker()) {
      negated = true;
      pos_ += text_[pos_] == '!' ? 1 : 3;
    }
    FMTK_ASSIGN_OR_RETURN(DlAtom atom, ParseAtom());
    if (negated) {
      atom.negated = true;
      // Widen the span to cover the negation marker.
      atom.span = SourceSpan::Of(start, atom.span.offset + atom.span.length -
                                            start);
    }
    return atom;
  }

  Result<DlAtom> ParseAtom() {
    SkipSpace();
    const std::size_t start = pos_;
    FMTK_ASSIGN_OR_RETURN(std::string name, ParseIdentifier());
    if (std::isdigit(static_cast<unsigned char>(name[0]))) {
      return Error("predicate names cannot start with a digit");
    }
    DlAtom atom;
    atom.predicate = std::move(name);
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      atom.span = SourceSpan::Of(start, pos_ - start);
      return atom;  // 0-ary atom without parentheses.
    }
    ++pos_;  // '('
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ')') {
      ++pos_;
      atom.span = SourceSpan::Of(start, pos_ - start);
      return atom;
    }
    while (true) {
      SkipSpace();
      const std::size_t term_start = pos_;
      FMTK_ASSIGN_OR_RETURN(std::string term, ParseIdentifier());
      if (std::isdigit(static_cast<unsigned char>(term[0]))) {
        const std::optional<std::uint64_t> value =
            ParseDecimal(term, std::numeric_limits<Element>::max());
        if (!value.has_value()) {
          return Status::ParseError(
              "constant '" + term +
              "' must be a decimal number of at most 4294967295 at offset " +
              std::to_string(term_start));
        }
        atom.terms.push_back(DlTerm::Const(static_cast<Element>(*value)));
      } else {
        atom.terms.push_back(DlTerm::Var(std::move(term)));
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ')') {
      return Error("expected ')'");
    }
    ++pos_;
    atom.span = SourceSpan::Of(start, pos_ - start);
    return atom;
  }

  Result<DlRule> ParseRule() {
    SkipSpace();
    const std::size_t start = pos_;
    DlRule rule;
    if (AtNegationMarker()) {
      return Error("negated head atom is not allowed");
    }
    FMTK_ASSIGN_OR_RETURN(rule.head, ParseAtom());
    SkipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_] == ':' &&
        text_[pos_ + 1] == '-') {
      pos_ += 2;
      SkipSpace();
      // An empty body before '.' is allowed (fact schema).
      if (pos_ < text_.size() && text_[pos_] != '.') {
        while (true) {
          FMTK_ASSIGN_OR_RETURN(DlAtom atom, ParseBodyAtom());
          rule.body.push_back(std::move(atom));
          SkipSpace();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          break;
        }
      }
    }
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '.') {
      return Error("expected '.' at end of rule");
    }
    ++pos_;
    rule.span = SourceSpan::Of(start, pos_ - start);
    return rule;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                           bool validate) {
  return DlParser(text).Parse(validate);
}

}  // namespace fmtk
