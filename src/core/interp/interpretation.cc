#include "core/interp/interpretation.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "eval/query_eval.h"
#include "logic/analysis.h"

namespace fmtk {

Interpretation::Interpretation(
    std::shared_ptr<const Signature> output_signature)
    : output_signature_(std::move(output_signature)) {
  FMTK_CHECK(output_signature_ != nullptr) << "null output signature";
  FMTK_CHECK(output_signature_->constant_count() == 0)
      << "interpretations with output constants are not supported";
  definitions_.resize(output_signature_->relation_count());
}

Status Interpretation::DefineRelation(const std::string& name, Formula f,
                                      std::vector<std::string> variables) {
  std::optional<std::size_t> index = output_signature_->FindRelation(name);
  if (!index.has_value()) {
    return Status::SignatureMismatch("unknown output relation: " + name);
  }
  if (variables.size() != output_signature_->relation(*index).arity) {
    return Status::InvalidArgument(
        "variable list does not match the arity of " + name);
  }
  std::set<std::string> unique(variables.begin(), variables.end());
  if (unique.size() != variables.size()) {
    return Status::InvalidArgument("output variables must be distinct");
  }
  for (const std::string& v : FreeVariables(f)) {
    if (unique.find(v) == unique.end()) {
      return Status::InvalidArgument("free variable " + v +
                                     " of the defining formula is not an "
                                     "output variable");
    }
  }
  definitions_[*index] = RelationDef{std::move(f), std::move(variables)};
  return Status::OK();
}

void Interpretation::SetDomainFormula(Formula f, std::string variable) {
  domain_ = RelationDef{std::move(f), {std::move(variable)}};
}

Result<Structure> Interpretation::Apply(const Structure& input) const {
  for (std::size_t r = 0; r < definitions_.size(); ++r) {
    if (!definitions_[r].has_value()) {
      return Status::InvalidArgument(
          "output relation " + output_signature_->relation(r).name +
          " has no defining formula");
    }
  }
  // Output domain.
  std::vector<Element> domain_elements;
  if (domain_.has_value()) {
    FMTK_ASSIGN_OR_RETURN(
        Relation members,
        EvaluateQuery(input, domain_->formula, domain_->variables));
    for (const auto t : members.rows()) {
      domain_elements.push_back(t[0]);
    }
    std::sort(domain_elements.begin(), domain_elements.end());
  } else {
    domain_elements.resize(input.domain_size());
    for (Element e = 0; e < input.domain_size(); ++e) {
      domain_elements[e] = e;
    }
  }
  std::unordered_map<Element, Element> renumber;
  renumber.reserve(domain_elements.size());
  for (std::size_t i = 0; i < domain_elements.size(); ++i) {
    renumber.emplace(domain_elements[i], static_cast<Element>(i));
  }
  Structure output(output_signature_, domain_elements.size());
  Tuple mapped;
  for (std::size_t r = 0; r < definitions_.size(); ++r) {
    const RelationDef& def = *definitions_[r];
    FMTK_ASSIGN_OR_RETURN(Relation defined,
                          EvaluateQuery(input, def.formula, def.variables));
    for (const auto t : defined.rows()) {
      mapped.clear();
      bool keep = true;
      for (Element e : t) {
        auto it = renumber.find(e);
        if (it == renumber.end()) {
          keep = false;  // Component outside the output domain.
          break;
        }
        mapped.push_back(it->second);
      }
      if (keep) {
        output.AddTuple(r, mapped);
      }
    }
  }
  return output;
}

}  // namespace fmtk
