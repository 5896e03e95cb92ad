#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/fo_analyzer.h"
#include "analysis/program_optimizer.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "eval/compiled_eval.h"
#include "eval/query_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/random_formula.h"
#include "structures/bulk_load.h"
#include "structures/generators.h"
#include "structures/signature.h"

namespace fmtk {
namespace {

std::shared_ptr<const Signature> GraphSig() { return Signature::Graph(); }

ParsedFormula ParseSpanned(const char* text, const Signature* sig = nullptr) {
  Result<ParsedFormula> parsed = ParseFormulaWithSpans(text, sig);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  return *std::move(parsed);
}

/// Full FO analysis of surface text: parse with spans (resolving constants
/// against `parse_sig` when given), analyze against `check_sig`.
FoAnalysis Analyze(const char* text, const Signature* check_sig,
                   FoProfile profile = FoProfile::kModelCheck,
                   const Signature* parse_sig = nullptr) {
  ParsedFormula parsed =
      ParseSpanned(text, parse_sig != nullptr ? parse_sig : check_sig);
  FoAnalyzerOptions options;
  options.signature = check_sig;
  options.spans = &parsed.spans;
  options.profile = profile;
  return AnalyzeFormula(parsed.formula, options);
}

DatalogAnalysis AnalyzeDl(const char* text, const Signature* sig = nullptr,
                          std::vector<std::string> outputs = {}) {
  Result<DatalogProgram> program =
      ParseDatalogProgram(text, /*validate=*/false);
  EXPECT_TRUE(program.ok()) << text << ": " << program.status().ToString();
  DatalogAnalyzerOptions options;
  options.signature = sig;
  options.outputs = std::move(outputs);
  return AnalyzeProgram(*program, options);
}

bool Has(const DiagnosticSink& sink, DiagCode code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Golden diagnostics: for every registered FMTK### code, one input that
// triggers it and one near-miss that does not. Keyed off AllDiagCodes() so
// adding a code without a golden pair fails the suite.
// ---------------------------------------------------------------------------

struct GoldenPair {
  std::function<DiagnosticSink()> trigger;
  std::function<DiagnosticSink()> near_miss;
};

std::map<DiagCode, GoldenPair> GoldenCases() {
  auto graph = GraphSig();
  auto graph_c = std::make_shared<Signature>();
  graph_c->AddRelation("E", 2).AddConstant("c");
  auto fo = [graph](const char* text) {
    return Analyze(text, graph.get()).diagnostics;
  };
  auto dl = [](const char* text, const Signature* sig = nullptr,
               std::vector<std::string> outputs = {}) {
    return AnalyzeDl(text, sig, std::move(outputs)).diagnostics;
  };
  std::map<DiagCode, GoldenPair> cases;
  cases[DiagCode::kUnknownRelation] = {
      [fo] { return fo("R(x,y)"); },
      [fo] { return fo("E(x,y)"); }};
  cases[DiagCode::kRelationArityMismatch] = {
      [fo] { return fo("E(x)"); },
      [fo] { return fo("E(x,y)"); }};
  cases[DiagCode::kUnknownConstant] = {
      // 'c' parses as a constant under {E/2; c} but the analysis signature
      // {E/2} has no such constant.
      [graph, graph_c] {
        return Analyze("E(c,x)", graph.get(), FoProfile::kModelCheck,
                       graph_c.get())
            .diagnostics;
      },
      [graph_c] {
        return Analyze("E(c,x)", graph_c.get()).diagnostics;
      }};
  cases[DiagCode::kNotSafeRange] = {
      [fo] { return fo("!E(x,y)"); },
      [fo] { return fo("E(x,y)"); }};
  cases[DiagCode::kUnsafeQuantifier] = {
      [fo] { return fo("exists x. !E(x,x)"); },
      [fo] { return fo("exists x. E(x,x)"); }};
  cases[DiagCode::kUnusedQuantifiedVariable] = {
      [fo] { return fo("exists x. E(y,y)"); },
      [fo] { return fo("exists x. E(x,x)"); }};
  cases[DiagCode::kShadowedVariable] = {
      [fo] { return fo("exists x. exists x. E(x,x)"); },
      [fo] { return fo("exists x. exists y. E(x,y)"); }};
  cases[DiagCode::kDoubleNegation] = {
      [fo] { return fo("!!E(x,y)"); },
      [fo] { return fo("!E(x,y)"); }};
  cases[DiagCode::kConstantSubformula] = {
      [fo] { return fo("E(x,y) & true"); },
      [fo] { return fo("E(x,y) & E(y,x)"); }};
  cases[DiagCode::kTrivialEquality] = {
      [fo] { return fo("x = x"); },
      [fo] { return fo("x = y"); }};
  cases[DiagCode::kInconsistentPredicateArity] = {
      [dl] { return dl("p(x) :- E(x,y). p(x,y) :- E(x,y)."); },
      [dl] { return dl("p(x) :- E(x,y). p(x) :- E(y,x)."); }};
  cases[DiagCode::kUnboundHeadVariable] = {
      [dl] { return dl("p(x,y) :- E(x,x)."); },
      [dl] { return dl("p(x,y) :- E(x,y)."); }};
  cases[DiagCode::kUnknownEdbPredicate] = {
      [dl, graph] { return dl("p(x) :- Q(x,x).", graph.get()); },
      [dl, graph] { return dl("p(x) :- E(x,x).", graph.get()); }};
  cases[DiagCode::kEdbArityMismatch] = {
      [dl, graph] { return dl("p(x) :- E(x,x,x).", graph.get()); },
      [dl, graph] { return dl("p(x) :- E(x,x).", graph.get()); }};
  cases[DiagCode::kIdbEdbCollision] = {
      [dl, graph] { return dl("E(x,y) :- E(x,y).", graph.get()); },
      [dl, graph] { return dl("p(x,y) :- E(x,y).", graph.get()); }};
  cases[DiagCode::kUnreachableRule] = {
      [dl] {
        return dl("p(x) :- E(x,x). q(x) :- E(x,x).", nullptr, {"p"});
      },
      [dl] {
        return dl("p(x) :- q(x). q(x) :- E(x,x).", nullptr, {"p"});
      }};
  cases[DiagCode::kDomainDependentFactSchema] = {
      [dl] { return dl("p(x)."); },
      [dl] { return dl("p(0)."); }};
  cases[DiagCode::kUnstratifiableProgram] = {
      // Negation through the predicate's own recursive component.
      [dl] { return dl("win(x) :- E(x,y), !win(y)."); },
      // Negation of a strictly lower stratum stratifies fine.
      [dl] {
        return dl("reach(x) :- E(x,y). unreach(x) :- E(x,x), !reach(x).");
      }};
  cases[DiagCode::kNegatedUnboundVariable] = {
      // z occurs only under negation: no positive atom binds it.
      [dl] { return dl("p(x) :- E(x,x), !E(x,z)."); },
      [dl] { return dl("p(x) :- E(x,z), !E(z,x)."); }};
  // FMTK112-114 are the optimizer's provenance codes: run the rewrites and
  // report whatever they dropped or classified.
  auto opt = [](const char* text,
                std::vector<std::string> outputs = {}) -> DiagnosticSink {
    Result<DatalogProgram> program =
        ParseDatalogProgram(text, /*validate=*/false);
    EXPECT_TRUE(program.ok()) << text << ": "
                              << program.status().ToString();
    if (!program.ok()) {
      return DiagnosticSink{};
    }
    DatalogOptimizerOptions options;
    options.outputs = std::move(outputs);
    Result<OptimizedDatalogProgram> optimized =
        OptimizeDatalogProgram(*program, options);
    EXPECT_TRUE(optimized.ok())
        << text << ": " << optimized.status().ToString();
    if (!optimized.ok()) {
      return DiagnosticSink{};
    }
    return optimized->provenance;
  };
  cases[DiagCode::kDuplicateRule] = {
      // Identical up to variable renaming.
      [opt] { return opt("p(x) :- E(x,y). p(a) :- E(a,b)."); },
      [opt] { return opt("p(x) :- E(x,y). p(x) :- E(y,x)."); }};
  cases[DiagCode::kSubsumedRule] = {
      // The longer rule derives a subset of what the shorter one does.
      [opt] { return opt("p(x) :- E(x,y). p(x) :- E(x,y), E(y,x)."); },
      // No head-preserving substitution maps E(x,y) into {R(x)}.
      [opt] { return opt("p(x) :- E(x,y). p(x) :- R(x)."); }};
  cases[DiagCode::kBoundedRecursion] = {
      // The self-head rule p :- p, ... derives nothing new: bounded.
      [opt] { return opt("p(x) :- p(x), E(x,y)."); },
      // Genuine linear recursion is unbounded.
      [opt] { return opt("p(x,y) :- E(x,y). p(x,y) :- p(x,z), E(z,y)."); }};
  // The FMTK2xx bulk-input codes run the loaders themselves: each lambda
  // feeds a tiny edge list / binary blob and returns whatever they report.
  auto edges = [](const char* text,
                  EdgeListOptions options = EdgeListOptions{}) {
    DiagnosticSink sink;
    (void)LoadEdgeListText(text, options, &sink);
    return sink;
  };
  auto binary = [](std::string bytes) {
    DiagnosticSink sink;
    (void)ParseStructureBinary(bytes, &sink);
    return sink;
  };
  cases[DiagCode::kIoTruncatedInput] = {
      [edges] { return edges("0 1\n2\n"); },
      [edges] { return edges("0 1\n2 3\n"); }};
  cases[DiagCode::kIoMalformedRecord] = {
      [binary] { return binary("NOTFMTK!"); },
      [binary] {
        return binary(SerializeStructureBinary(MakeDirectedPath(3)));
      }};
  EdgeListOptions numeric;
  numeric.id_mode = EdgeListOptions::IdMode::kNumeric;
  numeric.domain_size = 3;
  cases[DiagCode::kIoElementOutOfRange] = {
      [edges, numeric] { return edges("0 7\n", numeric); },
      [edges, numeric] { return edges("0 2\n", numeric); }};
  cases[DiagCode::kIoDuplicateTuple] = {
      [edges] { return edges("0 1\n0 1\n"); },
      [edges] { return edges("0 1\n1 0\n"); }};
  cases[DiagCode::kIoEmptyRelation] = {
      [edges] { return edges("# only comments\n"); },
      [edges] { return edges("0 1\n"); }};
  return cases;
}

TEST(GoldenDiagnosticsTest, EveryCodeHasTriggerAndNearMiss) {
  const std::map<DiagCode, GoldenPair> cases = GoldenCases();
  for (const DiagCodeInfo& info : AllDiagCodes()) {
    auto it = cases.find(info.code);
    ASSERT_NE(it, cases.end())
        << info.id << " (" << info.title << ") has no golden case";
    EXPECT_TRUE(Has(it->second.trigger(), info.code))
        << info.id << ": trigger input did not report the code";
    EXPECT_FALSE(Has(it->second.near_miss(), info.code))
        << info.id << ": near-miss input reported the code";
  }
  EXPECT_EQ(cases.size(), AllDiagCodes().size());
}

TEST(GoldenDiagnosticsTest, CodeTableIsConsistent) {
  std::set<std::string> ids;
  for (const DiagCodeInfo& info : AllDiagCodes()) {
    char expected[16];
    std::snprintf(expected, sizeof expected, "FMTK%03d",
                  static_cast<int>(info.code));
    EXPECT_STREQ(info.id, expected);
    EXPECT_TRUE(ids.insert(info.id).second) << info.id << " duplicated";
    EXPECT_EQ(GetDiagCodeInfo(info.code).id, info.id);
    EXPECT_STRNE(info.title, "");
  }
  EXPECT_STREQ(DiagCodeId(DiagCode::kUnknownRelation), "FMTK001");
  EXPECT_STREQ(DiagCodeId(DiagCode::kInconsistentPredicateArity), "FMTK101");
}

// ---------------------------------------------------------------------------
// Safe-range analysis.
// ---------------------------------------------------------------------------

bool SafeRange(const char* text) {
  return Analyze(text, GraphSig().get()).safe_range;
}

TEST(SafeRangeTest, ClassicalCases) {
  EXPECT_TRUE(SafeRange("E(x,y)"));
  EXPECT_TRUE(SafeRange("exists y. E(x,y)"));
  EXPECT_TRUE(SafeRange("E(x,y) & !E(y,x)"));
  EXPECT_TRUE(SafeRange("E(x,y) | E(y,x)"));
  EXPECT_TRUE(SafeRange("exists z. E(x,z) & E(z,y)"));
  // Equality propagates range restriction.
  EXPECT_TRUE(SafeRange("E(x,y) & z = x"));
  EXPECT_TRUE(SafeRange("E(x,y) & z = y & !E(z,z)"));

  // Negation alone restricts nothing.
  EXPECT_FALSE(SafeRange("!E(x,y)"));
  // One disjunct does not restrict y.
  EXPECT_FALSE(SafeRange("E(x,y) | E(x,x)"));
  // Universal quantification is not range-restricted.
  EXPECT_FALSE(SafeRange("forall y. E(x,y) -> E(y,x)"));
  // Equality with no anchor.
  EXPECT_FALSE(SafeRange("x = y"));
  // Unsafe quantifier poisons the whole formula even if rr covers the free
  // variables at the top level.
  EXPECT_FALSE(SafeRange("E(x,y) & (exists z. !E(z,z))"));
}

TEST(SafeRangeTest, SentencesAndBooleans) {
  // A sentence with only safe quantifiers is safe-range.
  EXPECT_TRUE(SafeRange("exists x y. E(x,y)"));
  EXPECT_FALSE(SafeRange("forall x. exists y. E(x,y)"));
  // Double negation around a safe body stays safe (polarity flips twice).
  EXPECT_TRUE(SafeRange("!!E(x,y)"));
  // De Morgan through implication: !(E(x,y) -> !E(y,x)) ==
  // E(x,y) & E(y,x).
  EXPECT_TRUE(SafeRange("!(E(x,y) -> !E(y,x))"));
}

TEST(SafeRangeTest, RangeRestrictedSetIsReported) {
  FoAnalysis a = Analyze("E(x,y) | E(x,x)", GraphSig().get());
  EXPECT_EQ(a.free_variables, (std::set<std::string>{"x", "y"}));
  EXPECT_EQ(a.range_restricted, (std::set<std::string>{"x"}));
  EXPECT_FALSE(a.safe_range);
}

TEST(SafeRangeTest, QueryProfileEscalatesToError) {
  FoAnalysis warn = Analyze("!E(x,y)", GraphSig().get());
  EXPECT_TRUE(warn.ok());
  EXPECT_GT(warn.diagnostics.warning_count(), 0u);

  FoAnalysis err =
      Analyze("!E(x,y)", GraphSig().get(), FoProfile::kQuery);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(FoMeasuresTest, RankWidthAndCounts) {
  FoAnalysis a =
      Analyze("exists x. (E(x,y) & forall z. E(z,x))", GraphSig().get());
  EXPECT_EQ(a.quantifier_rank, 2u);
  EXPECT_EQ(a.quantifier_count, 2u);
  EXPECT_EQ(a.variable_width, 3u);
  EXPECT_EQ(a.free_variables, (std::set<std::string>{"y"}));
  EXPECT_GT(a.node_count, 4u);
}

// ---------------------------------------------------------------------------
// Rendering: spans, carets, JSON, Status.
// ---------------------------------------------------------------------------

TEST(RenderingTest, DiagnosticCarriesByteSpanOfTheAtom) {
  FoAnalysis a = Analyze("exists x. R(x,y)", GraphSig().get());
  ASSERT_FALSE(a.diagnostics.empty());
  const Diagnostic* unknown = nullptr;
  for (const Diagnostic& d : a.diagnostics.diagnostics()) {
    if (d.code == DiagCode::kUnknownRelation) {
      unknown = &d;
    }
  }
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->span, SourceSpan::Of(10, 6));
  EXPECT_NE(unknown->ToString("exists x. R(x,y)").find("1:11"),
            std::string::npos);
}

TEST(RenderingTest, TextReportUnderlinesTheSource) {
  const char* text = "exists x. R(x,y)";
  FoAnalysis a = Analyze(text, GraphSig().get());
  const std::string report = a.diagnostics.ToText(text);
  EXPECT_NE(report.find("error[FMTK001]"), std::string::npos);
  EXPECT_NE(report.find(text), std::string::npos);
  EXPECT_NE(report.find("^~~~~"), std::string::npos);
}

TEST(RenderingTest, MultiLineDatalogSpans) {
  const char* text = "p(x) :- E(x,y).\np(x,y) :- E(x,y).";
  DatalogAnalysis a = AnalyzeDl(text);
  ASSERT_TRUE(Has(a.diagnostics, DiagCode::kInconsistentPredicateArity));
  const std::string report = a.diagnostics.ToText(text);
  EXPECT_NE(report.find("2:1"), std::string::npos);
  // The arity conflict carries a note pointing at the first use.
  bool found_note = false;
  for (const Diagnostic& d : a.diagnostics.diagnostics()) {
    if (d.code == DiagCode::kInconsistentPredicateArity) {
      found_note = !d.notes.empty();
    }
  }
  EXPECT_TRUE(found_note);
}

TEST(RenderingTest, JsonReport) {
  FoAnalysis a = Analyze("R(x,y)", GraphSig().get());
  const std::string json = a.diagnostics.ToJson();
  EXPECT_NE(json.find("\"code\":\"FMTK001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"offset\":0"), std::string::npos);

  DiagnosticSink empty;
  EXPECT_EQ(empty.ToJson(), "[]");
}

TEST(RenderingTest, StatusCarriesOnlyErrors) {
  // One error (unknown relation) + one note (trivial equality).
  FoAnalysis a = Analyze("R(x,y) & x = x", GraphSig().get());
  EXPECT_TRUE(Has(a.diagnostics, DiagCode::kTrivialEquality));
  const Status status = a.status();
  EXPECT_EQ(status.code(), StatusCode::kSignatureMismatch);
  EXPECT_NE(status.message().find("FMTK001"), std::string::npos);
  EXPECT_EQ(status.message().find("FMTK016"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dependency graph / SCC classification.
// ---------------------------------------------------------------------------

TEST(SccTest, TransitiveClosureIsLinear) {
  DatalogAnalysis a = AnalyzeProgram(DatalogProgram::TransitiveClosure());
  ASSERT_EQ(a.sccs.size(), 1u);
  EXPECT_EQ(a.sccs[0].predicates, std::vector<std::string>{"tc"});
  EXPECT_TRUE(a.sccs[0].recursive);
  EXPECT_TRUE(a.sccs[0].linear);
  EXPECT_EQ(a.sccs[0].max_recursive_atoms, 1u);
}

TEST(SccTest, NonlinearTransitiveClosure) {
  DatalogAnalysis a =
      AnalyzeProgram(DatalogProgram::NonlinearTransitiveClosure());
  ASSERT_EQ(a.sccs.size(), 1u);
  EXPECT_TRUE(a.sccs[0].recursive);
  EXPECT_FALSE(a.sccs[0].linear);
  EXPECT_EQ(a.sccs[0].max_recursive_atoms, 2u);
  EXPECT_NE(a.sccs[0].ToString().find("nonlinear"), std::string::npos);
}

TEST(SccTest, SameGenerationIsLinear) {
  DatalogAnalysis a = AnalyzeProgram(DatalogProgram::SameGeneration());
  ASSERT_EQ(a.scc_of.count("sg"), 1u);
  const DatalogSccInfo& sg = a.sccs[a.scc_of.at("sg")];
  EXPECT_TRUE(sg.recursive);
  EXPECT_TRUE(sg.linear);
  // The builtin's sg(x,x) fact schema is flagged as domain-dependent.
  EXPECT_TRUE(Has(a.diagnostics, DiagCode::kDomainDependentFactSchema));
}

TEST(SccTest, CondensationIsDependenciesFirst) {
  DatalogAnalysis a = AnalyzeDl(
      "q(x) :- p(x). p(x) :- E(x,x). r(x,y) :- q(x), q(y).");
  ASSERT_EQ(a.sccs.size(), 3u);
  EXPECT_LT(a.scc_of.at("p"), a.scc_of.at("q"));
  EXPECT_LT(a.scc_of.at("q"), a.scc_of.at("r"));
  for (const DatalogSccInfo& scc : a.sccs) {
    EXPECT_FALSE(scc.recursive);
    EXPECT_NE(scc.ToString().find("non-recursive"), std::string::npos);
  }
}

TEST(SccTest, MutualRecursionFormsOneScc) {
  DatalogAnalysis a = AnalyzeDl(
      "even(x) :- Z(x). even(x) :- S(y,x), odd(y). odd(x) :- S(y,x), even(x).");
  ASSERT_EQ(a.scc_of.at("even"), a.scc_of.at("odd"));
  const DatalogSccInfo& scc = a.sccs[a.scc_of.at("even")];
  EXPECT_TRUE(scc.recursive);
  EXPECT_EQ(scc.predicates, (std::vector<std::string>{"even", "odd"}));
}

TEST(SccTest, IdbAndEdbPartition) {
  DatalogAnalysis a = AnalyzeDl("p(x) :- E(x,y). q(x) :- p(x), R(x).");
  EXPECT_EQ(a.idb_predicates, (std::set<std::string>{"p", "q"}));
  EXPECT_EQ(a.edb_predicates, (std::set<std::string>{"E", "R"}));
}

TEST(SccTest, ReachabilityRelativeToOutputs) {
  DatalogAnalysis a = AnalyzeDl(
      "p(x) :- q(x). q(x) :- E(x,x). dead(x) :- E(x,x).", nullptr, {"p"});
  ASSERT_EQ(a.rule_reachable.size(), 3u);
  EXPECT_TRUE(a.rule_reachable[0]);
  EXPECT_TRUE(a.rule_reachable[1]);
  EXPECT_FALSE(a.rule_reachable[2]);
  EXPECT_TRUE(Has(a.diagnostics, DiagCode::kUnreachableRule));
  EXPECT_TRUE(a.ok());  // Unreachable rules are warnings, not errors.
}

// ---------------------------------------------------------------------------
// Engine front doors.
// ---------------------------------------------------------------------------

TEST(FrontDoorTest, QueryEvalRejectsVocabularyErrors) {
  Structure g = MakeDirectedPath(3);
  ParsedFormula f = ParseSpanned("R(x,y)");
  Result<Relation> r = EvaluateQuery(g, f.formula, {"x", "y"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSignatureMismatch);
  EXPECT_NE(r.status().message().find("FMTK001"), std::string::npos);
}

TEST(FrontDoorTest, QueryEvalSafeRangeOptIn) {
  Structure g = MakeDirectedPath(3);
  ParsedFormula f = ParseSpanned("!E(x,y)", GraphSig().get());
  // Default: domain-relative semantics still evaluates the complement.
  Result<Relation> lenient = EvaluateQuery(g, f.formula, {"x", "y"});
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(lenient->size(), 9u - 2u);
  // Opt-in: the analyzer rejects with the safe-range diagnostics.
  QueryEvalOptions options;
  options.require_safe_range = true;
  Result<Relation> strict = EvaluateQuery(g, f.formula, {"x", "y"}, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("FMTK010"), std::string::npos);
}

TEST(FrontDoorTest, QueryEvalSurfacesAnalysis) {
  Structure g = MakeDirectedPath(3);
  ParsedFormula f = ParseSpanned("exists z. E(x,z) & E(z,y)", GraphSig().get());
  FoAnalysis analysis;
  QueryEvalOptions options;
  options.analysis = &analysis;
  Result<Relation> r = EvaluateQuery(g, f.formula, {"x", "y"}, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(analysis.safe_range);
  EXPECT_EQ(analysis.quantifier_rank, 1u);
  EXPECT_EQ(analysis.free_variables, (std::set<std::string>{"x", "y"}));
}

TEST(FrontDoorTest, CompiledEvalRejectsVocabularyErrors) {
  ParsedFormula f = ParseSpanned("E(x)");
  Result<CompiledFormula> compiled =
      CompiledFormula::Compile(f.formula, *GraphSig());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kSignatureMismatch);
  EXPECT_NE(compiled.status().message().find("FMTK002"), std::string::npos);
}

TEST(FrontDoorTest, DatalogEnginesRejectUnboundHeads) {
  Structure g = MakeDirectedPath(3);
  Result<DatalogProgram> bad =
      ParseDatalogProgram("p(x,y) :- E(x,x).", /*validate=*/false);
  ASSERT_TRUE(bad.ok());
  for (DatalogStrategy strategy :
       {DatalogStrategy::kNaive, DatalogStrategy::kSemiNaive}) {
    Result<std::map<std::string, Relation>> r =
        EvaluateDatalog(*bad, g, strategy);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("FMTK102"), std::string::npos);
  }
}

TEST(FrontDoorTest, DatalogStatsCarryRecursionInfo) {
  Structure g = MakeDirectedPath(4);
  for (DatalogStrategy strategy :
       {DatalogStrategy::kNaive, DatalogStrategy::kSemiNaive}) {
    DatalogStats stats;
    Result<std::map<std::string, Relation>> r = EvaluateDatalog(
        DatalogProgram::NonlinearTransitiveClosure(), g, strategy, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(stats.recursion_info.size(), 1u);
    EXPECT_NE(stats.recursion_info[0].find("nonlinear"), std::string::npos);
  }
}

TEST(FrontDoorTest, DatalogStatsCarryAnalyzerWarnings) {
  Structure g = MakeDirectedPath(3);
  DatalogStats stats;
  Result<std::map<std::string, Relation>> r = EvaluateDatalog(
      DatalogProgram::SameGeneration(), g, DatalogStrategy::kSemiNaive,
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool found = false;
  for (const std::string& w : stats.analyzer_warnings) {
    found = found || w.find("FMTK107") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(FrontDoorTest, ValidateDelegatesToAnalyzer) {
  Result<DatalogProgram> bad = ParseDatalogProgram(
      "p(x) :- E(x,y). p(x,y) :- E(x,y).", /*validate=*/false);
  ASSERT_TRUE(bad.ok());
  const Status status = bad->Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FMTK101"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property tests over random formulas.
// ---------------------------------------------------------------------------

TEST(PropertyTest, RandomFormulasLintCleanOfErrors) {
  std::mt19937_64 rng(20260807);
  auto graph = GraphSig();
  RandomFormulaOptions options;
  for (int trial = 0; trial < 200; ++trial) {
    options.max_depth = 2 + trial % 4;
    options.variable_pool = 2 + trial % 3;
    const Formula f = trial % 2 == 0 ? MakeRandomFormula(*graph, options, rng)
                                     : MakeRandomSentence(*graph, options, rng);
    FoAnalyzerOptions analyzer_options;
    analyzer_options.signature = graph.get();
    const FoAnalysis a = AnalyzeFormula(f, analyzer_options);
    EXPECT_TRUE(a.ok()) << f.ToString() << "\n"
                        << a.diagnostics.ToText();
    EXPECT_EQ(a.quantifier_rank, QuantifierRank(f));
    EXPECT_EQ(a.free_variables, FreeVariables(f));
  }
}

std::set<Element> ActiveDomain(const Structure& s) {
  std::set<Element> active;
  for (std::size_t i = 0; i < s.signature().relation_count(); ++i) {
    for (const auto t : s.relation(i).rows()) {
      active.insert(t.begin(), t.end());
    }
  }
  for (std::size_t i = 0; i < s.signature().constant_count(); ++i) {
    if (s.constant(i).has_value()) {
      active.insert(*s.constant(i));
    }
  }
  return active;
}

TEST(PropertyTest, SafeRangeAnswersStayInTheActiveDomain) {
  std::mt19937_64 rng(7);
  auto graph = GraphSig();
  RandomFormulaOptions options;
  options.max_depth = 3;
  options.variable_pool = 2;
  std::size_t safe_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Formula f = MakeRandomFormula(*graph, options, rng);
    FoAnalyzerOptions analyzer_options;
    analyzer_options.signature = graph.get();
    const FoAnalysis a = AnalyzeFormula(f, analyzer_options);
    if (!a.safe_range || a.free_variables.empty()) {
      continue;
    }
    ++safe_seen;
    // Random graph with guaranteed isolated vertices: domain element n-1
    // and n-2 are never touched by an edge, so any answer mentioning them
    // would leave the active domain.
    Structure g = MakeRandomGraph(6, 0.5, rng);
    const std::set<Element> active = ActiveDomain(g);
    const std::vector<std::string> outputs(a.free_variables.begin(),
                                           a.free_variables.end());
    QueryEvalOptions eval_options;
    eval_options.require_safe_range = true;
    Result<Relation> answers = EvaluateQuery(g, f, outputs, eval_options);
    ASSERT_TRUE(answers.ok())
        << f.ToString() << ": " << answers.status().ToString();
    for (const auto t : answers->rows()) {
      for (const Element e : t) {
        EXPECT_TRUE(active.count(e) > 0)
            << f.ToString() << " produced non-active element "
            << e;
      }
    }
  }
  // The generator must have produced a healthy number of safe-range
  // formulas for the property to mean anything.
  EXPECT_GT(safe_seen, 20u);
}

TEST(PropertyTest, AnalyzerAgreesWithEvaluatorOnSafeQueries) {
  // Safe-range queries give the same answers under the checked and the
  // unchecked entry points (the analyzer must not perturb evaluation).
  std::mt19937_64 rng(99);
  auto graph = GraphSig();
  RandomFormulaOptions options;
  options.max_depth = 3;
  options.variable_pool = 2;
  for (int trial = 0; trial < 100; ++trial) {
    const Formula f = MakeRandomFormula(*graph, options, rng);
    FoAnalyzerOptions analyzer_options;
    analyzer_options.signature = graph.get();
    const FoAnalysis a = AnalyzeFormula(f, analyzer_options);
    if (!a.safe_range || a.free_variables.empty()) {
      continue;
    }
    Structure g = MakeRandomGraph(5, 0.4, rng);
    const std::vector<std::string> outputs(a.free_variables.begin(),
                                           a.free_variables.end());
    QueryEvalOptions strict;
    strict.require_safe_range = true;
    Result<Relation> checked = EvaluateQuery(g, f, outputs, strict);
    Result<Relation> unchecked = EvaluateQuery(g, f, outputs);
    ASSERT_TRUE(checked.ok());
    ASSERT_TRUE(unchecked.ok());
    EXPECT_EQ(*checked, *unchecked) << f.ToString();
  }
}

}  // namespace
}  // namespace fmtk
