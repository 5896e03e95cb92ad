#include "circuits/compile.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "base/check.h"
#include "logic/analysis.h"

namespace fmtk {

namespace {

// n^k with overflow guard (domains here are small).
std::size_t Pow(std::size_t n, std::size_t k) {
  std::size_t out = 1;
  for (std::size_t i = 0; i < k; ++i) {
    out *= n;
  }
  return out;
}

class Compiler {
 public:
  Compiler(const Signature& signature, std::size_t n)
      : signature_(signature), n_(n) {
    std::size_t offset = 0;
    for (std::size_t r = 0; r < signature.relation_count(); ++r) {
      offsets_.push_back(offset);
      offset += Pow(n, signature.relation(r).arity);
    }
    total_inputs_ = offset;
  }

  Result<Circuit> Compile(const Formula& sentence) {
    // Materialize every input bit up front so the encoding is positional.
    for (std::size_t r = 0; r < signature_.relation_count(); ++r) {
      const std::size_t arity = signature_.relation(r).arity;
      const std::size_t count = Pow(n_, arity);
      for (std::size_t idx = 0; idx < count; ++idx) {
        circuit_.AddInput(signature_.relation(r).name + "#" +
                          std::to_string(idx));
      }
    }
    std::map<std::string, Element> env;
    FMTK_ASSIGN_OR_RETURN(Circuit::GateId out, Build(sentence, env));
    circuit_.SetOutput(out);
    return std::move(circuit_);
  }

 private:
  using Env = std::map<std::string, Element>;

  // Memo key: subformula node + the values of its free variables.
  using MemoKey = std::pair<const void*, std::vector<Element>>;

  Result<Element> Resolve(const Term& t, const Env& env) {
    if (t.is_constant()) {
      return Status::Unsupported(
          "circuit compilation does not support constants");
    }
    auto it = env.find(t.name);
    if (it == env.end()) {
      return Status::InvalidArgument("unbound variable " + t.name +
                                     " (compile a sentence)");
    }
    return it->second;
  }

  Result<Circuit::GateId> Build(const Formula& f, Env& env) {
    // Free-variable footprint for memoization.
    std::vector<Element> footprint;
    for (const std::string& v : FreeVariables(f)) {
      auto it = env.find(v);
      if (it == env.end()) {
        return Status::InvalidArgument("unbound variable " + v);
      }
      footprint.push_back(it->second);
    }
    MemoKey key{f.node_identity(), std::move(footprint)};
    auto memo_it = memo_.find(key);
    if (memo_it != memo_.end()) {
      return memo_it->second;
    }
    FMTK_ASSIGN_OR_RETURN(Circuit::GateId id, BuildUncached(f, env));
    memo_.emplace(std::move(key), id);
    return id;
  }

  Result<Circuit::GateId> BuildUncached(const Formula& f, Env& env) {
    switch (f.kind()) {
      case FormulaKind::kTrue:
        return circuit_.AddConst(true);
      case FormulaKind::kFalse:
        return circuit_.AddConst(false);
      case FormulaKind::kAtom: {
        std::optional<std::size_t> rel =
            signature_.FindRelation(f.relation_name());
        if (!rel.has_value()) {
          return Status::SignatureMismatch("unknown relation: " +
                                           f.relation_name());
        }
        if (signature_.relation(*rel).arity != f.terms().size()) {
          return Status::SignatureMismatch("arity mismatch for " +
                                           f.relation_name());
        }
        std::size_t index = 0;
        for (const Term& t : f.terms()) {
          FMTK_ASSIGN_OR_RETURN(Element e, Resolve(t, env));
          index = index * n_ + e;
        }
        // Gate id of input bit: inputs were added first, in order.
        return offsets_[*rel] + index;
      }
      case FormulaKind::kEqual: {
        FMTK_ASSIGN_OR_RETURN(Element a, Resolve(f.terms()[0], env));
        FMTK_ASSIGN_OR_RETURN(Element b, Resolve(f.terms()[1], env));
        return circuit_.AddConst(a == b);
      }
      case FormulaKind::kNot: {
        FMTK_ASSIGN_OR_RETURN(Circuit::GateId in, Build(f.child(0), env));
        return circuit_.AddNot(in);
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        std::vector<Circuit::GateId> ins;
        ins.reserve(f.child_count());
        for (const Formula& c : f.children()) {
          FMTK_ASSIGN_OR_RETURN(Circuit::GateId in, Build(c, env));
          ins.push_back(in);
        }
        return f.kind() == FormulaKind::kAnd
                   ? circuit_.AddAnd(std::move(ins))
                   : circuit_.AddOr(std::move(ins));
      }
      case FormulaKind::kImplies: {
        FMTK_ASSIGN_OR_RETURN(Circuit::GateId a, Build(f.child(0), env));
        FMTK_ASSIGN_OR_RETURN(Circuit::GateId b, Build(f.child(1), env));
        return circuit_.AddOr({circuit_.AddNot(a), b});
      }
      case FormulaKind::kIff: {
        FMTK_ASSIGN_OR_RETURN(Circuit::GateId a, Build(f.child(0), env));
        FMTK_ASSIGN_OR_RETURN(Circuit::GateId b, Build(f.child(1), env));
        Circuit::GateId both = circuit_.AddAnd({a, b});
        Circuit::GateId neither =
            circuit_.AddAnd({circuit_.AddNot(a), circuit_.AddNot(b)});
        return circuit_.AddOr({both, neither});
      }
      case FormulaKind::kCountExists:
        return Status::Unsupported(
            "counting quantifiers are not compiled: FO(Cnt) needs threshold "
            "gates (TC0), not AC0");
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        // Unbounded fan-in OR / AND over the n instantiations.
        std::vector<Circuit::GateId> ins;
        ins.reserve(n_);
        auto it = env.find(f.variable());
        std::optional<Element> shadowed;
        if (it != env.end()) {
          shadowed = it->second;
        }
        Status error = Status::OK();
        for (Element d = 0; d < n_; ++d) {
          env[f.variable()] = d;
          Result<Circuit::GateId> in = Build(f.body(), env);
          if (!in.ok()) {
            error = in.status();
            break;
          }
          ins.push_back(*in);
        }
        if (shadowed.has_value()) {
          env[f.variable()] = *shadowed;
        } else {
          env.erase(f.variable());
        }
        FMTK_RETURN_IF_ERROR(error);
        return f.kind() == FormulaKind::kExists
                   ? circuit_.AddOr(std::move(ins))
                   : circuit_.AddAnd(std::move(ins));
      }
    }
    return Status::Internal("unreachable formula kind");
  }

  const Signature& signature_;
  std::size_t n_;
  std::vector<std::size_t> offsets_;
  std::size_t total_inputs_ = 0;
  Circuit circuit_;
  std::map<MemoKey, Circuit::GateId> memo_;
};

}  // namespace

Result<Circuit> CompileSentence(const Formula& sentence,
                                const Signature& signature, std::size_t n) {
  if (!FreeVariables(sentence).empty()) {
    return Status::InvalidArgument("compile a sentence (no free variables)");
  }
  if (signature.constant_count() > 0) {
    return Status::Unsupported(
        "circuit compilation does not support constants");
  }
  FMTK_RETURN_IF_ERROR(CheckAgainstSignature(sentence, signature));
  Compiler compiler(signature, n);
  return compiler.Compile(sentence);
}

std::size_t InputBitCount(const Signature& signature, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t r = 0; r < signature.relation_count(); ++r) {
    total += Pow(n, signature.relation(r).arity);
  }
  return total;
}

Result<std::vector<bool>> EncodeStructure(const Structure& s) {
  if (s.signature().constant_count() > 0) {
    return Status::Unsupported("encoding does not support constants");
  }
  std::vector<bool> bits(InputBitCount(s.signature(), s.domain_size()),
                         false);
  std::size_t offset = 0;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const std::size_t arity = s.signature().relation(r).arity;
    for (const auto t : s.relation(r).rows()) {
      std::size_t index = 0;
      for (Element e : t) {
        index = index * s.domain_size() + e;
      }
      bits[offset + index] = true;
    }
    offset += Pow(s.domain_size(), arity);
  }
  return bits;
}

}  // namespace fmtk
