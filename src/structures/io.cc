#include "structures/io.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"

namespace fmtk {

namespace {

class StructureParser {
 public:
  explicit StructureParser(std::string_view text) : text_(text) {}

  Result<Structure> Parse() {
    FMTK_ASSIGN_OR_RETURN(std::string lead, ParseWord());
    if (lead != "domain") {
      return Error("structure text must start with 'domain <n>'");
    }
    FMTK_ASSIGN_OR_RETURN(std::size_t domain, ParseNumber());
    // First pass requires collecting the signature before creating the
    // structure, so stash the bodies.
    struct PendingRelation {
      std::string name;
      std::size_t arity;
      std::vector<Tuple> tuples;
    };
    struct PendingConstant {
      std::string name;
      Element value;
    };
    std::vector<PendingRelation> relations;
    std::vector<PendingConstant> constants;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= text_.size()) {
        break;
      }
      FMTK_ASSIGN_OR_RETURN(std::string keyword, ParseWord());
      if (keyword == "relation") {
        FMTK_ASSIGN_OR_RETURN(std::string name, ParseWord());
        if (!Eat('/')) {
          return Error("expected '/<arity>' after relation name");
        }
        FMTK_ASSIGN_OR_RETURN(std::size_t arity, ParseNumber());
        if (!Eat('{')) {
          return Error("expected '{' to open the tuple list");
        }
        PendingRelation rel{std::move(name), arity, {}};
        while (!Eat('}')) {
          if (!Eat('(')) {
            return Error("expected '(' to open a tuple or '}' to close");
          }
          Tuple t;
          while (!Eat(')')) {
            FMTK_ASSIGN_OR_RETURN(std::size_t value, ParseNumber());
            if (value >= domain) {
              return Error("element outside the domain");
            }
            t.push_back(static_cast<Element>(value));
            Eat(',');
          }
          if (t.size() != arity) {
            return Error("tuple arity mismatch in relation " + rel.name);
          }
          rel.tuples.push_back(std::move(t));
        }
        relations.push_back(std::move(rel));
        continue;
      }
      if (keyword == "constant") {
        FMTK_ASSIGN_OR_RETURN(std::string name, ParseWord());
        if (!Eat('=')) {
          return Error("expected '=' after constant name");
        }
        FMTK_ASSIGN_OR_RETURN(std::size_t value, ParseNumber());
        if (value >= domain) {
          return Error("constant value outside the domain");
        }
        constants.push_back({std::move(name), static_cast<Element>(value)});
        continue;
      }
      return Error("unknown keyword '" + keyword + "'");
    }
    auto signature = std::make_shared<Signature>();
    for (const auto& rel : relations) {
      if (signature->FindRelation(rel.name).has_value()) {
        return Status::ParseError("duplicate relation " + rel.name);
      }
      signature->AddRelation(rel.name, rel.arity);
    }
    for (const auto& c : constants) {
      if (signature->FindConstant(c.name).has_value()) {
        return Status::ParseError("duplicate constant " + c.name);
      }
      signature->AddConstant(c.name);
    }
    Structure s(signature, domain);
    for (std::size_t r = 0; r < relations.size(); ++r) {
      for (const Tuple& t : relations[r].tuples) {
        s.AddTuple(r, t);
      }
    }
    for (std::size_t c = 0; c < constants.size(); ++c) {
      s.SetConstant(c, constants[c].value);
    }
    return s;
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
        continue;
      }
      break;
    }
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " + std::to_string(pos_));
  }

  bool Eat(char c) {
    SkipSpaceAndComments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseWord() {
    SkipSpaceAndComments();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '<' || text_[pos_] == '>')) {
      ++pos_;
    }
    if (start == pos_) {
      return Error("expected a name");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  // Domain sizes, arities and elements alike must fit an Element.
  Result<std::size_t> ParseNumber() {
    SkipSpaceAndComments();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (start == pos_) {
      return Error("expected a number");
    }
    const std::optional<std::uint64_t> value =
        ParseDecimal(text_.substr(start, pos_ - start),
                     std::numeric_limits<Element>::max());
    if (!value.has_value()) {
      return Status::ParseError(
          "number '" + std::string(text_.substr(start, pos_ - start)) +
          "' exceeds 4294967295 at offset " + std::to_string(start));
    }
    return static_cast<std::size_t>(*value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Structure> ParseStructure(std::string_view text) {
  return StructureParser(text).Parse();
}

std::string SerializeStructure(const Structure& s) {
  std::string out = "domain " + std::to_string(s.domain_size()) + "\n";
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const RelationSymbol& symbol = s.signature().relation(r);
    out += "relation " + symbol.name + "/" + std::to_string(symbol.arity) +
           " {";
    for (const auto t : s.relation(r).rows()) {
      out += " (";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) {
          out += " ";
        }
        out += std::to_string(t[i]);
      }
      out += ")";
    }
    out += " }\n";
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    std::optional<Element> value = s.constant(c);
    if (value.has_value()) {
      out += "constant " + s.signature().constant_name(c) + " = " +
             std::to_string(*value) + "\n";
    } else {
      out += "# constant " + s.signature().constant_name(c) +
             " is uninterpreted\n";
    }
  }
  return out;
}

}  // namespace fmtk
