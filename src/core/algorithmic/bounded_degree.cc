#include "core/algorithmic/bounded_degree.h"

#include <algorithm>
#include <utility>

#include "eval/compiled_eval.h"
#include "logic/analysis.h"

namespace fmtk {

HanfParameters HanfParametersForRank(std::size_t rank) {
  HanfParameters params;
  std::size_t power = 1;  // 3^rank, capped to keep the radius sane.
  for (std::size_t i = 0; i < rank && power < (std::size_t{1} << 40); ++i) {
    power *= 3;
  }
  params.radius = (power - 1) / 2;
  params.threshold = rank + 1;
  return params;
}

Result<BoundedDegreeEvaluator> BoundedDegreeEvaluator::Create(
    Formula sentence, Options options) {
  if (!FreeVariables(sentence).empty()) {
    return Status::InvalidArgument(
        "bounded-degree evaluation takes a sentence (no free variables)");
  }
  HanfParameters params = HanfParametersForRank(QuantifierRank(sentence));
  const std::size_t radius = options.radius.value_or(params.radius);
  const std::size_t threshold = options.threshold.value_or(params.threshold);
  return BoundedDegreeEvaluator(std::move(sentence), radius, threshold);
}

BoundedDegreeEvaluator::BoundedDegreeEvaluator(Formula sentence,
                                               std::size_t radius,
                                               std::size_t threshold)
    : sentence_(std::move(sentence)), radius_(radius), threshold_(threshold) {}

Result<bool> BoundedDegreeEvaluator::Evaluate(const Structure& g) {
  LocalityEngine engine(g);
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> histogram =
      engine.TypeHistogram(radius_, index_);
  locality_stats_ += engine.stats();
  std::vector<std::pair<std::size_t, std::size_t>> key;
  key.reserve(histogram.size());
  for (const auto& [type, count] : histogram) {
    key.emplace_back(type, std::min(count, threshold_));
  }
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  // Cache miss: fall back to full compiled model checking on this graph.
  FMTK_ASSIGN_OR_RETURN(CompiledEvaluator eval,
                        CompiledEvaluator::Compile(g, sentence_));
  FMTK_ASSIGN_OR_RETURN(bool verdict, eval.Evaluate());
  cache_.emplace(std::move(key), verdict);
  return verdict;
}

}  // namespace fmtk
