#include "core/order/order_invariance.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "eval/compiled_eval.h"

namespace fmtk {

Result<Structure> ExpandWithOrder(const Structure& s,
                                  const std::vector<Element>& permutation) {
  if (s.signature().FindRelation("<").has_value()) {
    return Status::InvalidArgument(
        "structure already interprets '<'; cannot expand");
  }
  if (permutation.size() != s.domain_size()) {
    return Status::InvalidArgument("permutation size does not match domain");
  }
  std::vector<bool> seen(s.domain_size(), false);
  for (Element e : permutation) {
    if (e >= s.domain_size() || seen[e]) {
      return Status::InvalidArgument("not a permutation of the domain");
    }
    seen[e] = true;
  }
  auto expanded_sig = std::make_shared<Signature>();
  for (const RelationSymbol& r : s.signature().relations()) {
    expanded_sig->AddRelation(r.name, r.arity);
  }
  expanded_sig->AddRelation("<", 2);
  for (const std::string& c : s.signature().constant_names()) {
    expanded_sig->AddConstant(c);
  }
  Structure out(expanded_sig, s.domain_size());
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    for (const auto t : s.relation(r).rows()) {
      out.AddTuple(r, Tuple(t.begin(), t.end()));
    }
  }
  const std::size_t less = *expanded_sig->FindRelation("<");
  for (std::size_t i = 0; i < permutation.size(); ++i) {
    for (std::size_t j = i + 1; j < permutation.size(); ++j) {
      out.AddTuple(less, {permutation[i], permutation[j]});
    }
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    std::optional<Element> value = s.constant(c);
    if (value.has_value()) {
      out.SetConstant(c, *value);
    }
  }
  return out;
}

std::vector<Element> IdentityOrder(const Structure& s) {
  std::vector<Element> order(s.domain_size());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

Result<OrderInvarianceReport> CheckOrderInvariance(
    const Structure& s, const Formula& sentence, std::mt19937_64& rng,
    std::size_t max_exhaustive, std::size_t samples) {
  OrderInvarianceReport report;
  std::vector<Element> first_order = IdentityOrder(s);
  FMTK_ASSIGN_OR_RETURN(Structure first, ExpandWithOrder(s, first_order));
  // Every order expansion shares the same (σ ∪ {<}) signature, so the
  // sentence compiles once and is rebound per expanded structure.
  FMTK_ASSIGN_OR_RETURN(CompiledFormula plan,
                        CompiledFormula::Compile(sentence, first.signature()));
  FMTK_ASSIGN_OR_RETURN(CompiledEvaluator first_eval,
                        CompiledEvaluator::Bind(plan, first));
  FMTK_ASSIGN_OR_RETURN(bool baseline, first_eval.Evaluate());
  report.value = baseline;
  report.orders_checked = 1;

  auto check_order =
      [&](const std::vector<Element>& order) -> Result<bool> {
    FMTK_ASSIGN_OR_RETURN(Structure expanded, ExpandWithOrder(s, order));
    FMTK_ASSIGN_OR_RETURN(CompiledEvaluator eval,
                          CompiledEvaluator::Bind(plan, expanded));
    FMTK_ASSIGN_OR_RETURN(bool verdict, eval.Evaluate());
    ++report.orders_checked;
    if (verdict != baseline) {
      report.invariant = false;
      report.witness = std::make_pair(first_order, order);
    }
    return verdict;
  };

  if (s.domain_size() <= max_exhaustive) {
    std::vector<Element> order = first_order;
    while (std::next_permutation(order.begin(), order.end())) {
      FMTK_ASSIGN_OR_RETURN(bool verdict, check_order(order));
      (void)verdict;
      if (!report.invariant) {
        return report;
      }
    }
    return report;
  }
  std::vector<Element> order = first_order;
  for (std::size_t i = 0; i < samples; ++i) {
    std::shuffle(order.begin(), order.end(), rng);
    FMTK_ASSIGN_OR_RETURN(bool verdict, check_order(order));
    (void)verdict;
    if (!report.invariant) {
      return report;
    }
  }
  return report;
}

}  // namespace fmtk
