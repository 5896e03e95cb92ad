#include "logic/parser.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"

namespace fmtk {

namespace {

enum class TokenKind {
  kName,     // identifiers and keywords
  kLParen,
  kRParen,
  kComma,
  kDot,
  kAnd,      // &
  kOr,       // |
  kNot,      // ! or ~
  kImplies,  // ->
  kIff,      // <->
  kEqual,    // =
  kNotEqual, // !=
  kLess,     // <
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  std::size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      const std::size_t at = pos_;
      if (pos_ >= text_.size()) {
        tokens.push_back({TokenKind::kEnd, "", at});
        return tokens;
      }
      const char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '\'')) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kName,
                          std::string(text_.substr(start, pos_ - start)),
                          at});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        // Numeric names are allowed as constants/variables (e.g. parsers of
        // generated formulas); lex them as names.
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kName,
                          std::string(text_.substr(start, pos_ - start)),
                          at});
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", at});
          ++pos_;
          continue;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", at});
          ++pos_;
          continue;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", at});
          ++pos_;
          continue;
        case '.':
        case ':':
          tokens.push_back({TokenKind::kDot, ".", at});
          ++pos_;
          continue;
        case '&':
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '&') {
            ++pos_;
          }
          tokens.push_back({TokenKind::kAnd, "&", at});
          continue;
        case '|':
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '|') {
            ++pos_;
          }
          tokens.push_back({TokenKind::kOr, "|", at});
          continue;
        case '~':
          tokens.push_back({TokenKind::kNot, "~", at});
          ++pos_;
          continue;
        case '!':
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '=') {
            ++pos_;
            tokens.push_back({TokenKind::kNotEqual, "!=", at});
          } else {
            tokens.push_back({TokenKind::kNot, "!", at});
          }
          continue;
        case '=':
          tokens.push_back({TokenKind::kEqual, "=", at});
          ++pos_;
          continue;
        case '-':
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '>') {
            ++pos_;
            tokens.push_back({TokenKind::kImplies, "->", at});
            continue;
          }
          return Status::ParseError("stray '-' at offset " +
                                    std::to_string(at));
        case '<':
          ++pos_;
          if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
              text_[pos_ + 1] == '>') {
            pos_ += 2;
            tokens.push_back({TokenKind::kIff, "<->", at});
          } else {
            tokens.push_back({TokenKind::kLess, "<", at});
          }
          continue;
        default:
          return Status::ParseError(std::string("unexpected character '") +
                                    c + "' at offset " + std::to_string(at));
      }
    }
  }

 private:
  /// Whitespace and '%' line comments (Prolog style) separate tokens.
  void SkipWhitespace() {
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

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool IsKeyword(const Token& t, std::string_view word) {
  return t.kind == TokenKind::kName && t.text == word;
}

class Parser {
 public:
  // `spans` may be null (span recording off).
  Parser(std::vector<Token> tokens, const Signature* signature,
         FormulaSpans* spans)
      : tokens_(std::move(tokens)), signature_(signature), spans_(spans) {}

  Result<Formula> Parse() {
    FMTK_ASSIGN_OR_RETURN(Formula f, ParseIff());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input");
    }
    return f;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  // Byte offset just past the most recently consumed token.
  std::size_t EndOfConsumed() const {
    if (pos_ == 0) {
      return 0;
    }
    const Token& prev = tokens_[pos_ - 1];
    return prev.offset + prev.text.size();
  }

  // Records [start, end-of-consumed-input) as the span of `f`'s node, or
  // rejects `f` when it is taller than the nesting cap. Desugared inner
  // nodes (nested quantifier blocks) stay untagged; the analyzer falls back
  // to the nearest tagged ancestor.
  Result<Formula> Tag(Formula f, std::size_t start) {
    if (f.height() > kMaxFormulaNesting) {
      return TooDeep(start);
    }
    if (spans_ != nullptr) {
      spans_->Set(f, SourceSpan::Of(start, EndOfConsumed() - start));
    }
    return f;
  }

  // Runs `parse` one text nesting level deeper, opened by the token just
  // consumed; fails past the limit before the recursion can exhaust the
  // stack.
  Result<Formula> Nested(Result<Formula> (Parser::*parse)()) {
    if (depth_ == 2 * kMaxFormulaNesting) {
      return TooDeep(tokens_[pos_ - 1].offset);
    }
    ++depth_;
    Result<Formula> f = (this->*parse)();
    --depth_;
    return f;
  }

  // The construct starting at `offset` nests past the cap.
  static Status TooDeep(std::size_t offset) {
    return Status::ParseError("formula nests deeper than " +
                              std::to_string(kMaxFormulaNesting) +
                              " levels at offset " + std::to_string(offset));
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().offset) + " (near '" +
                              Peek().text + "')");
  }

  Result<Formula> ParseIff() {
    const std::size_t start = Peek().offset;
    FMTK_ASSIGN_OR_RETURN(Formula left, ParseImplies());
    while (Peek().kind == TokenKind::kIff) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula right, ParseImplies());
      FMTK_ASSIGN_OR_RETURN(
          left, Tag(Formula::Iff(std::move(left), std::move(right)), start));
    }
    return left;
  }

  Result<Formula> ParseImplies() {
    const std::size_t start = Peek().offset;
    FMTK_ASSIGN_OR_RETURN(Formula left, ParseOr());
    if (Peek().kind == TokenKind::kImplies) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula right, Nested(&Parser::ParseImplies));
      return Tag(Formula::Implies(std::move(left), std::move(right)), start);
    }
    return left;
  }

  Result<Formula> ParseOr() {
    const std::size_t start = Peek().offset;
    FMTK_ASSIGN_OR_RETURN(Formula left, ParseAnd());
    while (Peek().kind == TokenKind::kOr || IsKeyword(Peek(), "or")) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula right, ParseAnd());
      FMTK_ASSIGN_OR_RETURN(
          left, Tag(Formula::Or(std::move(left), std::move(right)), start));
    }
    return left;
  }

  Result<Formula> ParseAnd() {
    const std::size_t start = Peek().offset;
    FMTK_ASSIGN_OR_RETURN(Formula left, ParseUnary());
    while (Peek().kind == TokenKind::kAnd || IsKeyword(Peek(), "and")) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula right, ParseUnary());
      FMTK_ASSIGN_OR_RETURN(
          left, Tag(Formula::And(std::move(left), std::move(right)), start));
    }
    return left;
  }

  Result<Formula> ParseUnary() {
    const std::size_t start = Peek().offset;
    if (Peek().kind == TokenKind::kNot || IsKeyword(Peek(), "not")) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula f, Nested(&Parser::ParseUnary));
      return Tag(Formula::Not(std::move(f)), start);
    }
    if (IsKeyword(Peek(), "atleast")) {
      // Counting quantifier: atleast <k> <var> . <formula>.
      Advance();
      if (Peek().kind != TokenKind::kName ||
          !std::isdigit(static_cast<unsigned char>(Peek().text[0]))) {
        return Error("expected a count after 'atleast'");
      }
      // Elements are 32-bit, so no domain meets a larger count.
      const std::optional<std::uint64_t> count = ParseDecimal(
          Peek().text, std::numeric_limits<std::uint32_t>::max());
      if (!count.has_value()) {
        return Error("the count after 'atleast' must be a decimal number "
                     "of at most 4294967295");
      }
      Advance();
      if (*count == 0) {
        return Error("'atleast 0' is trivially true; use a count >= 1");
      }
      if (Peek().kind != TokenKind::kName) {
        return Error("expected a variable after the count");
      }
      std::string variable = Advance().text;
      if (Peek().kind != TokenKind::kDot) {
        return Error("expected '.' after the counting quantifier");
      }
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula body, Nested(&Parser::ParseIff));
      return Tag(
          Formula::CountExists(static_cast<std::size_t>(*count),
                               std::move(variable), std::move(body)),
          start);
    }
    const bool is_exists =
        IsKeyword(Peek(), "exists") || IsKeyword(Peek(), "ex");
    const bool is_forall =
        IsKeyword(Peek(), "forall") || IsKeyword(Peek(), "all");
    if (is_exists || is_forall) {
      Advance();
      std::vector<std::string> variables;
      while (Peek().kind == TokenKind::kName && !IsKeyword(Peek(), "true") &&
             !IsKeyword(Peek(), "false")) {
        variables.push_back(Advance().text);
        if (Peek().kind == TokenKind::kComma) {
          Advance();
        }
      }
      if (variables.empty()) {
        return Error("quantifier without variables");
      }
      if (Peek().kind != TokenKind::kDot) {
        return Error("expected '.' after quantified variables");
      }
      Advance();
      // The quantifier's scope extends as far right as possible. Only the
      // outermost node of the desugared block is tagged; the analyzer falls
      // back to it for the inner per-variable quantifier nodes, whose
      // height is checked before they are built.
      FMTK_ASSIGN_OR_RETURN(Formula body, Nested(&Parser::ParseIff));
      if (body.height() + variables.size() > kMaxFormulaNesting) {
        return TooDeep(start);
      }
      return Tag(is_exists ? Formula::Exists(variables, std::move(body))
                           : Formula::Forall(variables, std::move(body)),
                 start);
    }
    return ParsePrimary();
  }

  Term ResolveTerm(const std::string& name) const {
    if (signature_ != nullptr && signature_->FindConstant(name).has_value()) {
      return Term::Const(name);
    }
    return Term::Var(name);
  }

  Result<Formula> ParsePrimary() {
    const std::size_t start = Peek().offset;
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      FMTK_ASSIGN_OR_RETURN(Formula f, Nested(&Parser::ParseIff));
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')'");
      }
      Advance();
      return f;
    }
    if (IsKeyword(Peek(), "true")) {
      Advance();
      return Tag(Formula::True(), start);
    }
    if (IsKeyword(Peek(), "false")) {
      Advance();
      return Tag(Formula::False(), start);
    }
    if (Peek().kind != TokenKind::kName) {
      return Error("expected a formula");
    }
    const std::string name = Advance().text;
    if (Peek().kind == TokenKind::kLParen) {
      // Relation atom R(t1,...,tk).
      Advance();
      std::vector<Term> terms;
      if (Peek().kind != TokenKind::kRParen) {
        while (true) {
          if (Peek().kind != TokenKind::kName) {
            return Error("expected a term");
          }
          terms.push_back(ResolveTerm(Advance().text));
          if (Peek().kind == TokenKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')' after atom arguments");
      }
      Advance();
      return Tag(Formula::Atom(name, std::move(terms)), start);
    }
    // `name` starts a term: equality, inequality, or infix '<'.
    Term left = ResolveTerm(name);
    switch (Peek().kind) {
      case TokenKind::kEqual: {
        Advance();
        if (Peek().kind != TokenKind::kName) {
          return Error("expected a term after '='");
        }
        Term right = ResolveTerm(Advance().text);
        return Tag(Formula::Equal(std::move(left), std::move(right)), start);
      }
      case TokenKind::kNotEqual: {
        Advance();
        if (Peek().kind != TokenKind::kName) {
          return Error("expected a term after '!='");
        }
        Term right = ResolveTerm(Advance().text);
        // "x != y" desugars to !(x = y); tag both nodes with the surface
        // span so diagnostics on either point at the inequality.
        FMTK_ASSIGN_OR_RETURN(
            Formula equal,
            Tag(Formula::Equal(std::move(left), std::move(right)), start));
        return Tag(Formula::Not(std::move(equal)), start);
      }
      case TokenKind::kLess: {
        Advance();
        if (Peek().kind != TokenKind::kName) {
          return Error("expected a term after '<'");
        }
        Term right = ResolveTerm(Advance().text);
        return Tag(Formula::Atom("<", {std::move(left), std::move(right)}),
                   start);
      }
      default:
        // A bare name: a 0-ary relation atom (propositional flag).
        return Tag(Formula::Atom(name, {}), start);
    }
  }

  std::vector<Token> tokens_;
  const Signature* signature_;
  FormulaSpans* spans_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // nesting levels open around the current token
};

}  // namespace

Result<Formula> ParseFormula(std::string_view text,
                             const Signature* signature) {
  FMTK_ASSIGN_OR_RETURN(ParsedFormula parsed,
                        ParseFormulaWithSpans(text, signature));
  return std::move(parsed.formula);
}

Result<ParsedFormula> ParseFormulaWithSpans(std::string_view text,
                                            const Signature* signature) {
  Lexer lexer(text);
  FMTK_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  ParsedFormula parsed;
  Parser parser(std::move(tokens), signature, &parsed.spans);
  FMTK_ASSIGN_OR_RETURN(parsed.formula, parser.Parse());
  return parsed;
}

}  // namespace fmtk
