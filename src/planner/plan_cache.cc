#include "planner/plan_cache.h"

#include <algorithm>
#include <string>
#include <utility>

#include "logic/parser.h"

namespace fmtk {

namespace {

// Fragment scan for routing: existential-positive (∧/∨/∃/atoms/variable
// equalities — the FO->Datalog fragment), constant terms, counting
// quantifiers. One pass over the canonical AST.
struct FragmentFlags {
  bool existential_positive = true;
  bool has_constant_terms = false;
  bool has_counting = false;
};

void ScanFragment(const Formula& f, FragmentFlags& flags) {
  switch (f.kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEqual:
      for (const Term& t : f.terms()) {
        if (t.is_constant()) {
          flags.has_constant_terms = true;
        }
      }
      return;
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      flags.existential_positive = false;  // not expressible in a CQ body
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const Formula& child : f.children()) {
        ScanFragment(child, flags);
      }
      return;
    case FormulaKind::kExists:
      ScanFragment(f.body(), flags);
      return;
    case FormulaKind::kCountExists:
      flags.has_counting = true;
      flags.existential_positive = false;
      ScanFragment(f.body(), flags);
      return;
    case FormulaKind::kNot:
    case FormulaKind::kImplies:
    case FormulaKind::kIff:
      flags.existential_positive = false;
      for (const Formula& child : f.children()) {
        ScanFragment(child, flags);
      }
      return;
    case FormulaKind::kForall:
      flags.existential_positive = false;
      ScanFragment(f.body(), flags);
      return;
  }
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  return "hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
         " insertions=" + std::to_string(insertions) +
         " evictions=" + std::to_string(evictions) +
         " entries=" + std::to_string(entries);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats total = formulas_.stats();
  total += programs_.stats();
  return total;
}

Result<std::shared_ptr<const CachedFormulaPlan>> PlanCache::GetFormulaPlan(
    const Formula& f, const Signature& signature, PlanCacheLookup* lookup) {
  CanonicalQuery canonical = CanonicalizeQuery(f, signature);
  const std::string key = "c:" + canonical.key;
  if (lookup != nullptr) {
    lookup->key = key;
  }
  if (std::shared_ptr<const CachedFormulaPlan> hit = formulas_.Get(key)) {
    if (lookup != nullptr) {
      lookup->hit = true;
    }
    return hit;
  }

  FoAnalyzerOptions options;
  options.signature = &signature;
  FoAnalysis analysis = AnalyzeFormula(canonical.formula, options);
  if (!analysis.ok()) {
    return analysis.status();
  }
  FMTK_ASSIGN_OR_RETURN(
      CompiledFormula compiled,
      CompiledFormula::Compile(canonical.formula, signature));

  auto plan = std::make_shared<CachedFormulaPlan>(
      std::move(canonical), std::move(compiled), std::move(analysis));
  FragmentFlags flags;
  ScanFragment(plan->canonical.formula, flags);
  plan->existential_positive = flags.existential_positive;
  plan->has_constant_terms = flags.has_constant_terms;
  plan->has_counting = flags.has_counting;
  return formulas_.Insert(key, std::move(plan));
}

Result<std::shared_ptr<const CachedFormulaPlan>>
PlanCache::GetFormulaPlanFromText(std::string_view text,
                                  const Signature& signature,
                                  PlanCacheLookup* lookup) {
  const std::string text_key =
      "t:" + std::string(text) + "\n@sig " + signature.ToString();
  if (std::shared_ptr<const CachedFormulaPlan> hit = formulas_.Get(text_key)) {
    if (lookup != nullptr) {
      lookup->hit = true;
      lookup->text_hit = true;
      lookup->key = "c:" + hit->canonical.key;
    }
    return hit;
  }
  FMTK_ASSIGN_OR_RETURN(Formula f, ParseFormula(text, &signature));
  FMTK_ASSIGN_OR_RETURN(std::shared_ptr<const CachedFormulaPlan> plan,
                        GetFormulaPlan(f, signature, lookup));
  formulas_.Insert(text_key, plan);
  return plan;
}

namespace {

// The outputs and the optimize flag change what the optimizer produces, so
// they are part of both cache keys: "@out" roots and "@opt" flag.
std::string DatalogOptionsSuffix(const DatalogPlanOptions& opts) {
  std::string out = "\n@out ";
  for (std::size_t i = 0; i < opts.outputs.size(); ++i) {
    out += (i > 0 ? "," : "") + opts.outputs[i];
  }
  out += opts.optimize ? "\n@opt 1" : "\n@opt 0";
  return out;
}

}  // namespace

Result<std::shared_ptr<const CachedDatalogPlan>> PlanCache::GetDatalogPlan(
    const DatalogProgram& program, const Signature& signature,
    const DatalogPlanOptions& options, PlanCacheLookup* lookup) {
  DatalogProgram canonical = CanonicalizeProgram(program);
  const std::string key = "d:" + CanonicalProgramKey(canonical, signature) +
                          DatalogOptionsSuffix(options);
  if (lookup != nullptr) {
    lookup->key = key;
  }
  if (std::shared_ptr<const CachedDatalogPlan> hit = programs_.Get(key)) {
    if (lookup != nullptr) {
      lookup->hit = true;
    }
    return hit;
  }

  DatalogAnalyzerOptions analyzer_options;
  analyzer_options.signature = &signature;
  DatalogAnalysis analysis = AnalyzeProgram(canonical, analyzer_options);
  if (!analysis.ok()) {
    return analysis.status();
  }
  auto plan = std::make_shared<CachedDatalogPlan>(
      std::move(canonical), signature, std::move(analysis));
  if (options.optimize) {
    DatalogOptimizerOptions optimizer_options;
    optimizer_options.signature = &signature;
    optimizer_options.outputs = options.outputs;
    FMTK_ASSIGN_OR_RETURN(
        plan->optimized, OptimizeDatalogProgram(plan->program,
                                                optimizer_options));
  }
  return programs_.Insert(key, std::move(plan));
}

Result<std::shared_ptr<const CachedDatalogPlan>>
PlanCache::GetDatalogPlanFromText(std::string_view text,
                                  const Signature& signature,
                                  const DatalogPlanOptions& options,
                                  PlanCacheLookup* lookup) {
  const std::string text_key = "u:" + std::string(text) + "\n@sig " +
                               signature.ToString() +
                               DatalogOptionsSuffix(options);
  if (std::shared_ptr<const CachedDatalogPlan> hit = programs_.Get(text_key)) {
    if (lookup != nullptr) {
      lookup->hit = true;
      lookup->text_hit = true;
    }
    return hit;
  }
  FMTK_ASSIGN_OR_RETURN(DatalogProgram program,
                        ParseDatalogProgram(text, /*validate=*/false));
  FMTK_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDatalogPlan> plan,
                        GetDatalogPlan(program, signature, options, lookup));
  programs_.Insert(text_key, plan);
  return plan;
}

PlanCache& DefaultPlanCache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

Result<CompiledDatalogEngine> GetOrBindDatalogEngine(
    std::vector<BoundDatalogEngine>& memo, const DatalogProgram& program,
    const Structure& edb) {
  constexpr std::size_t kMaxBoundEngines = 4;
  for (std::size_t i = 0; i < memo.size(); ++i) {
    if (memo[i].structure_uid == edb.uid() &&
        memo[i].structure_generation == edb.generation()) {
      if (i != 0) {
        std::rotate(memo.begin(), memo.begin() + i, memo.begin() + i + 1);
      }
      return memo.front().engine;
    }
  }
  FMTK_ASSIGN_OR_RETURN(CompiledDatalogEngine engine,
                        CompiledDatalogEngine::Create(program, edb));
  memo.insert(memo.begin(),
              BoundDatalogEngine{edb.uid(), edb.generation(), engine});
  if (memo.size() > kMaxBoundEngines) {
    memo.pop_back();
  }
  return engine;
}

}  // namespace fmtk
