#include "planner/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/evaluator.h"
#include "eval/compiled_eval.h"
#include "eval/model_check.h"
#include "eval/query_eval.h"
#include "logic/parser.h"
#include "planner/canonical.h"
#include "planner/fo_to_datalog.h"
#include "structures/generators.h"
#include "structures/structure_stats.h"

namespace fmtk {
namespace {

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNaive,      EngineKind::kCompiled,
    EngineKind::kParallel,   EngineKind::kRelational,
    EngineKind::kDatalog,    EngineKind::kBoundedDegree,
};

std::multiset<Tuple> TupleSet(const Relation& r) {
  return {r.tuples().begin(), r.tuples().end()};
}

// ---------------------------------------------------------------------------
// Structure statistics.

TEST(StructureStatsTest, PathGraph) {
  const Structure path = MakeDirectedPath(5);
  const StructureStats stats = path.Stats();
  EXPECT_EQ(stats.domain_size, 5u);
  EXPECT_EQ(stats.tuple_count, 4u);
  EXPECT_EQ(stats.gaifman_edge_count, 4u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_EQ(stats.component_count, 1u);
  EXPECT_GE(stats.diameter_bound, 4u);  // true diameter
  EXPECT_LE(stats.diameter_bound, 8u);  // 2 * eccentricity bound
}

TEST(StructureStatsTest, DisjointCycles) {
  const Structure g = MakeDisjointCycles(2, 4);
  const StructureStats stats = g.Stats();
  EXPECT_EQ(stats.domain_size, 8u);
  EXPECT_EQ(stats.component_count, 2u);
  EXPECT_EQ(stats.max_degree, 2u);
}

TEST(StructureStatsTest, GenerationBumpsOnMutationAndStatsRefresh) {
  Structure g = MakeEmptyGraph(3);
  const std::uint64_t gen0 = g.generation();
  EXPECT_EQ(g.Stats().tuple_count, 0u);
  g.AddTuple("E", {0, 1});
  EXPECT_GT(g.generation(), gen0);
  EXPECT_EQ(g.Stats().tuple_count, 1u);  // cache invalidated, not stale
  EXPECT_EQ(g.Stats().generation, g.generation());
}

TEST(StructureStatsTest, CopyAndMoveGetFreshUids) {
  Structure a = MakeDirectedCycle(3);
  const std::uint64_t uid_a = a.uid();
  Structure b = a;  // copy
  EXPECT_NE(b.uid(), uid_a);
  EXPECT_EQ(a.uid(), uid_a);
  Structure c = std::move(a);  // move also re-identifies
  EXPECT_NE(c.uid(), uid_a);
  EXPECT_NE(c.uid(), b.uid());
  EXPECT_EQ(b.Stats().domain_size, 3u);
  EXPECT_EQ(c.Stats().domain_size, 3u);
}

// ---------------------------------------------------------------------------
// Canonicalizer.

TEST(CanonicalTest, AlphaVariantsGetOneKey) {
  Signature sig;
  sig.AddRelation("E", 2);
  const Formula f1 = *ParseFormula("exists x. exists y. E(x,y)", &sig);
  const Formula f2 = *ParseFormula("exists u. exists v. E(u,v)", &sig);
  EXPECT_EQ(CanonicalizeQuery(f1, sig).key, CanonicalizeQuery(f2, sig).key);
}

TEST(CanonicalTest, CommutedAndSortedConnectives) {
  Signature sig;
  sig.AddRelation("E", 2);
  const Formula ab = *ParseFormula(
      "(exists x. E(x,x)) & (forall x. exists y. E(x,y))", &sig);
  const Formula ba = *ParseFormula(
      "(forall x. exists y. E(x,y)) & (exists x. E(x,x))", &sig);
  EXPECT_EQ(CanonicalizeQuery(ab, sig).key, CanonicalizeQuery(ba, sig).key);
}

TEST(CanonicalTest, EqualitySidesOrdered) {
  Signature sig;
  sig.AddRelation("E", 2);
  const Formula xy = *ParseFormula("E(x,y) & (x = y)", &sig);
  const Formula yx = *ParseFormula("E(x,y) & (y = x)", &sig);
  EXPECT_EQ(CanonicalizeQuery(xy, sig).key, CanonicalizeQuery(yx, sig).key);
}

TEST(CanonicalTest, DifferentSignaturesDifferentKeys) {
  Signature sig1;
  sig1.AddRelation("E", 2);
  Signature sig2;
  sig2.AddRelation("E", 2);
  sig2.AddRelation("F", 1);
  const Formula f = *ParseFormula("exists x. E(x,x)", &sig1);
  EXPECT_NE(CanonicalizeQuery(f, sig1).key, CanonicalizeQuery(f, sig2).key);
  EXPECT_NE(SignatureFingerprint(sig1), SignatureFingerprint(sig2));
}

TEST(CanonicalTest, CanonicalizationPreservesSemantics) {
  const Structure g = MakeDirectedCycle(5);
  const std::vector<std::string> sentences = {
      "exists x. E(x,x)",
      "forall x. exists y. E(x,y)",
      "(forall x. ~E(x,x)) & (exists x. exists y. E(x,y))",
      "forall x. forall y. E(x,y) -> (exists z. E(y,z))",
      "~(exists x. E(x,x)) | (forall y. E(y,y))",
  };
  for (const std::string& text : sentences) {
    const Formula f = *ParseFormula(text, &g.signature());
    const Formula canon = CanonicalizeFormula(f);
    ModelChecker checker(g);
    EXPECT_EQ(*checker.Check(f), *checker.Check(canon)) << text;
  }
}

// ---------------------------------------------------------------------------
// FO -> Datalog lowering.

TEST(FoToDatalogTest, MatchesRelationalEvaluation) {
  const Structure g = MakeDirectedCycle(6);
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"E(x,y)", {"x", "y"}},
          {"exists y. E(x,y) & E(y,x)", {"x"}},
          {"E(x,y) & E(y,z)", {"x", "y", "z"}},
          {"(exists z. E(x,z) & E(z,y)) | E(x,y)", {"x", "y"}},
          {"E(x,y) & (x = y)", {"x", "y"}},
      };
  for (const auto& [text, outputs] : cases) {
    const Formula f = *ParseFormula(text, &g.signature());
    auto translation = TranslateToDatalog(f, g.signature());
    ASSERT_TRUE(translation.ok()) << text << ": "
                                  << translation.status().ToString();
    auto idb = EvaluateDatalog(translation->program, g);
    ASSERT_TRUE(idb.ok()) << text;
    const Relation& got = idb->at(translation->output_predicate);
    auto expected = EvaluateQuery(g, f, translation->output_variables);
    ASSERT_TRUE(expected.ok()) << text;
    EXPECT_EQ(TupleSet(got), TupleSet(*expected)) << text;
  }
}

TEST(FoToDatalogTest, RejectsOutsideFragment) {
  Signature sig;
  sig.AddRelation("E", 2);
  for (const std::string& text :
       {std::string("~E(x,y)"), std::string("forall y. E(x,y)"),
        std::string("exists y. x = y")}) {
    const Formula f = *ParseFormula(text, &sig);
    EXPECT_FALSE(TranslateToDatalog(f, sig).ok()) << text;
  }
}

// ---------------------------------------------------------------------------
// EvaluateAuto: differential sweep. Every verdict must equal the reference
// interpreter, and every *forced* engine that accepts the input must agree
// bit-for-bit too.

std::vector<Structure> SweepStructures(std::mt19937_64& rng) {
  std::vector<Structure> out;
  out.push_back(MakeDirectedCycle(3));
  out.push_back(MakeDirectedCycle(9));
  out.push_back(MakeDirectedPath(7));
  out.push_back(MakeDisjointCycles(2, 5));
  out.push_back(MakePathPlusCycle(4));
  out.push_back(MakeFullBinaryTree(3));
  out.push_back(MakeEmptyGraph(4));
  out.push_back(MakeCompleteGraph(4));
  out.push_back(MakeGrid(3, 3));
  // Sparse random graphs: low edge probability keeps degrees small, which
  // exercises the bounded-degree route's eligibility gates both ways.
  out.push_back(MakeRandomGraph(12, 0.08, rng));
  out.push_back(MakeRandomGraph(16, 0.05, rng));
  out.push_back(MakeRandomGraph(10, 0.3, rng));
  return out;
}

TEST(EvaluateAutoTest, DifferentialSentenceSweep) {
  const std::vector<std::string> sentences = {
      "exists x. E(x,x)",
      "exists x. exists y. E(x,y) & E(y,x)",
      "forall x. exists y. E(x,y)",
      "forall x. ~E(x,x)",
      "forall x. forall y. E(x,y) -> (exists z. E(y,z))",
      "exists x. forall y. E(x,y) | (x = y)",
      "(exists x. E(x,x)) | (forall x. exists y. E(x,y))",
      "atleast 2 x. exists y. E(x,y)",
      "exists x. exists y. E(x,y) & ~(x = y)",
  };
  std::mt19937_64 rng(20260809);
  const std::vector<Structure> structures = SweepStructures(rng);

  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  for (const Structure& g : structures) {
    for (const std::string& text : sentences) {
      const Formula f = *ParseFormula(text, &g.signature());
      ModelChecker checker(g);
      const bool expected = *checker.Check(f);

      PlanExplanation explain;
      auto routed = EvaluateAuto(g, f, opts, &explain);
      ASSERT_TRUE(routed.ok())
          << text << " on n=" << g.domain_size() << ": "
          << routed.status().ToString();
      EXPECT_EQ(*routed, expected)
          << text << " on n=" << g.domain_size() << " routed to "
          << EngineKindName(explain.chosen);

      for (EngineKind engine : kAllEngines) {
        PlannerOptions forced = opts;
        forced.force_engine = engine;
        auto result = EvaluateAuto(g, f, forced);
        if (result.ok()) {
          EXPECT_EQ(*result, expected)
              << text << " on n=" << g.domain_size() << " forced to "
              << EngineKindName(engine);
        } else {
          // Engines outside their fragment must refuse, never misanswer.
          EXPECT_EQ(result.status().code(), StatusCode::kUnsupported)
              << text << " forced to " << EngineKindName(engine) << ": "
              << result.status().ToString();
        }
      }
    }
  }
}

TEST(EvaluateAutoTest, DifferentialQuerySweep) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> queries =
      {
          {"E(x,y)", {"x", "y"}},
          {"E(x,y)", {"y", "x"}},  // column order respected
          {"exists y. E(x,y)", {"x"}},
          {"E(x,y) & E(y,z)", {"x", "y", "z"}},
          {"E(x,y) & E(y,z)", {"z", "x", "y"}},
          {"~E(x,x)", {"x"}},
          {"E(x,x)", {"x", "y"}},  // extra output ranges over the domain
          {"(exists z. E(x,z) & E(z,y)) | E(x,y)", {"x", "y"}},
          {"forall y. E(x,y) | ~E(y,x)", {"x"}},
      };
  std::mt19937_64 rng(987654);
  std::vector<Structure> structures;
  structures.push_back(MakeDirectedCycle(5));
  structures.push_back(MakeDirectedPath(6));
  structures.push_back(MakeCompleteGraph(4));
  structures.push_back(MakeEmptyGraph(3));
  structures.push_back(MakeRandomGraph(8, 0.2, rng));

  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  for (const Structure& g : structures) {
    for (const auto& [text, outputs] : queries) {
      const Formula f = *ParseFormula(text, &g.signature());
      auto expected = EvaluateQueryNaive(g, f, outputs);
      ASSERT_TRUE(expected.ok()) << text;

      PlanExplanation explain;
      auto routed = EvaluateQueryAuto(g, f, outputs, opts, &explain);
      ASSERT_TRUE(routed.ok()) << text << ": "
                               << routed.status().ToString();
      EXPECT_EQ(TupleSet(*routed), TupleSet(*expected))
          << text << " on n=" << g.domain_size() << " routed to "
          << EngineKindName(explain.chosen);

      for (EngineKind engine : kAllEngines) {
        PlannerOptions forced = opts;
        forced.force_engine = engine;
        auto result = EvaluateQueryAuto(g, f, outputs, forced);
        if (result.ok()) {
          EXPECT_EQ(TupleSet(*result), TupleSet(*expected))
              << text << " forced to " << EngineKindName(engine);
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kUnsupported)
              << text << " forced to " << EngineKindName(engine) << ": "
              << result.status().ToString();
        }
      }
    }
  }
}

TEST(EvaluateAutoTest, TextOverloadAndCacheHits) {
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  const Structure g = MakeDirectedCycle(8);

  PlanExplanation cold;
  ASSERT_TRUE(EvaluateAuto(g, "forall x. exists y. E(x,y)", opts, &cold).ok());
  EXPECT_FALSE(cold.cache_hit);

  PlanExplanation warm;
  ASSERT_TRUE(EvaluateAuto(g, "forall x. exists y. E(x,y)", opts, &warm).ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.text_cache_hit);

  // An α-variant through the Formula door hits the canonical layer.
  const Formula variant =
      *ParseFormula("forall u. exists v. E(u,v)", &g.signature());
  PlanExplanation canonical_hit;
  ASSERT_TRUE(EvaluateAuto(g, variant, opts, &canonical_hit).ok());
  EXPECT_TRUE(canonical_hit.cache_hit);
  EXPECT_FALSE(canonical_hit.text_cache_hit);
}

TEST(EvaluateAutoTest, ExplainIsPopulated) {
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  const Structure g = MakeDirectedCycle(16);
  PlanExplanation explain;
  ASSERT_TRUE(
      EvaluateAuto(g, "forall x. exists y. E(x,y)", opts, &explain).ok());
  EXPECT_FALSE(explain.rule.empty());
  EXPECT_FALSE(explain.theorem.empty());
  EXPECT_EQ(explain.costs.size(), 6u);  // one row per engine
  EXPECT_EQ(explain.quantifier_rank, 2u);
  EXPECT_EQ(explain.free_variable_count, 0u);
  EXPECT_EQ(explain.structure.domain_size, 16u);
  EXPECT_NE(explain.ToString().find("plan:"), std::string::npos);
  EXPECT_NE(explain.ToJson().find("\"engine\""), std::string::npos);
  EXPECT_NE(explain.ToJson().find("\"costs\""), std::string::npos);
}

TEST(EvaluateAutoTest, RejectsFreeVariablesAndBadOutputs) {
  const Structure g = MakeDirectedCycle(4);
  const Formula open = *ParseFormula("E(x,y)", &g.signature());
  EXPECT_FALSE(EvaluateAuto(g, open).ok());

  // Outputs must cover the free variables and contain no duplicates.
  EXPECT_FALSE(EvaluateQueryAuto(g, open, {"x"}).ok());
  EXPECT_FALSE(EvaluateQueryAuto(g, open, {"x", "y", "x"}).ok());

  // Unknown relation: same error class as the direct engines.
  EXPECT_FALSE(EvaluateAuto(g, "exists x. NoSuch(x)").ok());
}

TEST(EvaluateAutoTest, BoundedDegreeRouteFiresOnLargeSparseCycles) {
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  // Rank 3 with an inner negation: the relational route would materialize
  // an n^2 complement extended over a third variable, the compiled scan is
  // n^2 (y is correlated to x, z is unguarded) — on a degree-2 structure
  // large enough for that to dwarf the linear Hanf histogram pass, the
  // histogram wins.
  const std::string sentence =
      "forall x. exists y. E(x,y) & (forall z. ~E(y,z) | E(z,x))";
  const Structure big = MakeDirectedCycle(2048);

  PlannerOptions compiled_opts = opts;
  compiled_opts.force_engine = EngineKind::kCompiled;
  auto expected = EvaluateAuto(big, sentence, compiled_opts);
  ASSERT_TRUE(expected.ok());

  PlanExplanation explain;
  auto result = EvaluateAuto(big, sentence, opts, &explain);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *expected);
  EXPECT_EQ(explain.chosen, EngineKind::kBoundedDegree)
      << explain.ToString();

  // A second cycle of a different size: the Hanf verdict cache amortizes,
  // and the verdict must stay correct.
  const Structure other = MakeDirectedCycle(2072);
  auto other_expected = EvaluateAuto(other, sentence, compiled_opts);
  ASSERT_TRUE(other_expected.ok());
  auto again = EvaluateAuto(other, sentence, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *other_expected);
}

TEST(EvaluateAutoTest, UseCacheFalseStillRoutesCorrectly) {
  PlannerOptions opts;
  opts.use_cache = false;
  const Structure g = MakeDirectedCycle(6);
  PlanExplanation explain;
  auto result = EvaluateAuto(g, "exists x. E(x,x)", opts, &explain);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
  EXPECT_FALSE(explain.cache_hit);
}

TEST(EngineKindTest, NamesRoundTrip) {
  for (EngineKind k : kAllEngines) {
    auto parsed = ParseEngineKind(EngineKindName(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(ParseEngineKind("bounded_degree"), EngineKind::kBoundedDegree);
  EXPECT_FALSE(ParseEngineKind("quantum").has_value());
}

// ---------------------------------------------------------------------------
// EvaluateDatalogAuto.

TEST(EvaluateDatalogAutoTest, MatchesDirectEvaluationAndMemoizesEngines) {
  const std::string program_text =
      "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z).";
  const DatalogProgram program = *ParseDatalogProgram(program_text);
  Structure g = MakeDirectedPath(6);

  auto direct = EvaluateDatalog(program, g);
  ASSERT_TRUE(direct.ok());

  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  PlanCacheLookup first;
  auto routed = EvaluateDatalogAuto(g, program, opts, nullptr, &first);
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(first.hit);
  ASSERT_EQ(routed->count("tc"), 1u);
  EXPECT_EQ(TupleSet(routed->at("tc")), TupleSet(direct->at("tc")));

  // Second run: plan cache hit; results identical.
  PlanCacheLookup second;
  auto warm = EvaluateDatalogAuto(g, program, opts, nullptr, &second);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(TupleSet(warm->at("tc")), TupleSet(direct->at("tc")));

  // Mutating the EDB bumps the generation: the memoized engine may not be
  // reused, and results must reflect the new tuple.
  g.AddTuple("E", {5, 0});  // close the path into a cycle
  auto after = EvaluateDatalogAuto(g, program, opts);
  ASSERT_TRUE(after.ok());
  auto direct_after = EvaluateDatalog(program, g);
  ASSERT_TRUE(direct_after.ok());
  EXPECT_EQ(TupleSet(after->at("tc")), TupleSet(direct_after->at("tc")));
  EXPECT_GT(after->at("tc").size(), direct->at("tc").size());

  // Text front door.
  PlanCacheLookup text_lookup;
  auto from_text =
      EvaluateDatalogAuto(g, program_text, opts, nullptr, &text_lookup);
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(TupleSet(from_text->at("tc")), TupleSet(direct_after->at("tc")));
}

TEST(EvaluateDatalogAutoTest, ExplainReportsOptimizerPrePass) {
  const std::string text =
      "tc(x,y) :- E(x,y). tc(x,z) :- tc(x,y), E(y,z). goal(x) :- tc(0,x).";
  Structure g = MakeDisjointCycles(2, 4);
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  opts.datalog_outputs = {"goal"};

  DatalogPlanExplanation cold;
  auto routed =
      EvaluateDatalogAuto(g, text, opts, nullptr, nullptr, &cold);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.route, "datalog");
  EXPECT_TRUE(cold.optimized);
  EXPECT_TRUE(cold.magic_applied);
  EXPECT_FALSE(cold.rewrites.empty());
  EXPECT_FALSE(cold.strata.empty());
  EXPECT_FALSE(cold.boundedness.empty());
  // Outputs restrict the result map, and the magic/adorned helper
  // predicates of the rewritten program never leak out of the plan.
  ASSERT_EQ(routed->size(), 1u);
  EXPECT_EQ(routed->begin()->first, "goal");
  EXPECT_EQ(routed->at("goal").size(), 4u);  // the 4-cycle through 0

  DatalogPlanExplanation warm;
  auto again = EvaluateDatalogAuto(g, text, opts, nullptr, nullptr, &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.text_cache_hit);
  EXPECT_TRUE(warm.magic_applied);  // explanation filled from the cache
  EXPECT_FALSE(warm.ToString().empty());
  EXPECT_NE(warm.ToJson().find("\"magic_applied\":true"), std::string::npos);
}

TEST(EvaluateDatalogAutoTest, BoundedProgramRoutesToFo) {
  const std::string text = "hop2(x,y) :- E(x,z), E(z,y).";
  Structure g = MakeDirectedCycle(5);
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;

  DatalogPlanExplanation explain;
  auto routed =
      EvaluateDatalogAuto(g, text, opts, nullptr, nullptr, &explain);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(explain.fo_expressible);
  EXPECT_EQ(explain.route, "fo");
  const DatalogProgram program = *ParseDatalogProgram(text);
  auto direct = EvaluateDatalog(program, g);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(TupleSet(routed->at("hop2")), TupleSet(direct->at("hop2")));

  // Forcing the routing off keeps the fixpoint engine with equal results.
  PlannerOptions no_fo = opts;
  no_fo.datalog_fo_routing = false;
  DatalogPlanExplanation fixpoint;
  auto unrouted =
      EvaluateDatalogAuto(g, text, no_fo, nullptr, nullptr, &fixpoint);
  ASSERT_TRUE(unrouted.ok());
  EXPECT_EQ(fixpoint.route, "datalog");
  EXPECT_EQ(TupleSet(unrouted->at("hop2")), TupleSet(routed->at("hop2")));
}

TEST(EvaluateDatalogAutoTest, OptimizeToggleAndOutputsAreCacheKeyed) {
  const std::string text =
      "tc(x,y) :- E(x,y). tc(x,z) :- tc(x,y), E(y,z). goal(x) :- tc(0,x).";
  Structure g = MakeDirectedPath(5);
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;

  PlanCacheLookup plain;
  ASSERT_TRUE(EvaluateDatalogAuto(g, text, opts, nullptr, &plain).ok());

  PlannerOptions unoptimized = opts;
  unoptimized.optimize_datalog = false;
  PlanCacheLookup raw;
  auto raw_result = EvaluateDatalogAuto(g, text, unoptimized, nullptr, &raw);
  ASSERT_TRUE(raw_result.ok());
  EXPECT_FALSE(raw.hit);  // @opt flag keys a separate entry
  EXPECT_NE(plain.key, raw.key);

  PlannerOptions with_outputs = opts;
  with_outputs.datalog_outputs = {"goal"};
  PlanCacheLookup bound;
  ASSERT_TRUE(
      EvaluateDatalogAuto(g, text, with_outputs, nullptr, &bound).ok());
  EXPECT_FALSE(bound.hit);  // @out roots key a separate entry
  EXPECT_NE(plain.key, bound.key);

  // All three plans agree on the shared output predicate.
  auto optimized_result = EvaluateDatalogAuto(g, text, with_outputs);
  ASSERT_TRUE(optimized_result.ok());
  EXPECT_EQ(TupleSet(optimized_result->at("goal")),
            TupleSet(raw_result->at("goal")));
}

TEST(EvaluateDatalogAutoTest, UnstratifiableProgramFailsFromEveryDoor) {
  Structure g = MakeDirectedPath(4);
  const std::string text = "win(x) :- E(x,y), !win(y).";
  PlanCache cache;
  PlannerOptions opts;
  opts.cache = &cache;
  auto from_text = EvaluateDatalogAuto(g, text, opts);
  ASSERT_FALSE(from_text.ok());
  EXPECT_EQ(from_text.status().code(), StatusCode::kInvalidArgument);

  const DatalogProgram program =
      *ParseDatalogProgram(text, /*validate=*/false);
  auto from_program = EvaluateDatalogAuto(g, program, opts);
  ASSERT_FALSE(from_program.ok());
  EXPECT_EQ(from_program.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fan-out pricing: the compiled route is priced from the same per-quantifier
// guard description the evaluator runs (eval/compiled_eval.h
// EstimateFanout), so a correlated guard makes guarded ∀∃ chains linear in
// the estimate exactly when it makes them linear in the engine.

double CostOf(const PlanExplanation& explain, EngineKind engine) {
  for (const EngineCost& c : explain.costs) {
    if (c.engine == engine && c.eligible) return c.cost;
  }
  return -1.0;
}

TEST(FanoutPricingTest, GuardedForallExistsOnCycleRoutesCompiled) {
  PlanCache cache;
  PlannerOptions options;
  options.cache = &cache;
  const Structure cycle = MakeDirectedCycle(1024);
  const std::string q = "forall x. exists y. E(x,y)";

  auto explain = PlanAuto(cycle, q, /*query_mode=*/false, 0, options);
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->chosen, EngineKind::kCompiled);
  EXPECT_EQ(explain->guards,
            (std::vector<std::string>{"%0:none", "%1:correlated"}));
  // n instantiations of x, one successor each: 2n, not n^2.
  EXPECT_DOUBLE_EQ(explain->estimated_instantiations, 2048.0);
  EXPECT_NE(explain->ToString().find("estimated instantiations: 2.05e+03 "
                                     "(guards: %0:none %1:correlated)"),
            std::string::npos)
      << explain->ToString();
  EXPECT_NE(explain->ToJson().find(
                "\"guards\":[\"%0:none\",\"%1:correlated\"]"),
            std::string::npos)
      << explain->ToJson();
  auto verdict = EvaluateAuto(cycle, q, options);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(FanoutPricingTest, TriangleStaysOnDatalog) {
  // E19's ep_triangle: only the innermost quantifier is guarded (hoisting
  // through nested ∃ bodies is not done), so the compiled estimate stays
  // quadratic and the Datalog join still wins.
  PlannerOptions options;
  options.use_cache = false;
  auto explain = PlanAuto(
      MakeDirectedCycle(128),
      "exists x. exists y. exists z. E(x,y) & E(y,z) & E(z,x)",
      /*query_mode=*/false, 0, options);
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->chosen, EngineKind::kDatalog);
  EXPECT_EQ(explain->guards, (std::vector<std::string>{
                                 "%0:none", "%1:none", "%2:correlated"}));
}

TEST(FanoutPricingTest, BoundedDegreeAndDenseConfigsKeepTheirRoutes) {
  PlannerOptions options;
  options.use_cache = false;
  options.threads = 1;  // The E19 table's single-core routes.
  auto bd = PlanAuto(MakeDirectedCycle(4096),
                     "forall x. forall y. ~E(x,y) | (exists z. E(y,z))",
                     /*query_mode=*/false, 0, options);
  ASSERT_TRUE(bd.ok());
  EXPECT_EQ(bd->chosen, EngineKind::kBoundedDegree) << bd->ToString();

  std::mt19937_64 rng(4242);  // bench_planner's dense_diam2 graph.
  auto dense = PlanAuto(MakeRandomGraph(96, 0.6, rng),
                        "forall x. forall y. (x = y) | E(x,y) | "
                        "(exists z. E(x,z) & E(z,y))",
                        /*query_mode=*/false, 0, options);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->chosen, EngineKind::kCompiled) << dense->ToString();
}

TEST(FanoutPricingTest, CompiledCostIsThePricedFanoutEstimate) {
  PlanCache cache;
  PlannerOptions options;
  options.cache = &cache;
  const Structure cycle = MakeDirectedCycle(64);
  const std::string q = "forall x. exists y. E(x,y) & (exists z. E(y,z))";
  auto explain = PlanAuto(cycle, q, /*query_mode=*/false, 0, options);
  ASSERT_TRUE(explain.ok());
  auto plan = cache.GetFormulaPlanFromText(q, cycle.signature());
  ASSERT_TRUE(plan.ok());
  const FanoutEstimate estimate = EstimateFanout((*plan)->plan, cycle);
  EXPECT_EQ(estimate.fanout, (std::vector<double>{64.0, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(CostOf(*explain, EngineKind::kCompiled),
                   0.3 * estimate.node_visits);
  EXPECT_DOUBLE_EQ(explain->estimated_instantiations,
                   estimate.instantiations);

  // Query mode evaluates the plan once per domain^m candidate row.
  const std::string open = "exists y. E(x,y)";
  auto query = PlanAuto(cycle, open, /*query_mode=*/true, 1, options);
  ASSERT_TRUE(query.ok());
  auto open_plan = cache.GetFormulaPlanFromText(open, cycle.signature());
  ASSERT_TRUE(open_plan.ok());
  const FanoutEstimate per_row = EstimateFanout((*open_plan)->plan, cycle);
  // The guard atom holds the free x, so y is not guarded: a scan.
  EXPECT_EQ(per_row.fanout, (std::vector<double>{64.0}));
  EXPECT_DOUBLE_EQ(CostOf(*query, EngineKind::kCompiled),
                   0.3 * 64.0 * per_row.node_visits);

  // A static guard fans out to its column's distinct values: 63 sources
  // on a 64-node path.
  const Structure path = MakeDirectedPath(64);
  auto loop = CompiledFormula::Compile(*ParseFormula("exists x. E(x,x)"),
                                       path.signature());
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->guards()[0].kind, GuardKind::kStatic);
  EXPECT_EQ(EstimateFanout(*loop, path).fanout, (std::vector<double>{63.0}));
}

// ---------------------------------------------------------------------------
// Plan once, execute once: a PlanAuto result is the executable plan.

TEST(PlannedExecutionTest, ForcedEnginesArePricedFromTheSameTable) {
  PlanCache cache;
  PlannerOptions options;
  options.cache = &cache;
  options.threads = 1;
  const Structure cycle = MakeDirectedCycle(64);
  const std::string q = "forall x. exists y. E(x,y) & (exists z. E(y,z))";
  auto unforced = PlanAuto(cycle, q, /*query_mode=*/false, 0, options);
  ASSERT_TRUE(unforced.ok());
  for (EngineKind engine : kAllEngines) {
    PlannerOptions forced = options;
    forced.force_engine = engine;
    auto plan = PlanAuto(cycle, q, /*query_mode=*/false, 0, forced);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->chosen, engine);
    ASSERT_EQ(plan->costs.size(), 6u) << plan->ToString();
    double row = -1.0;
    for (const EngineCost& c : unforced->costs) {
      if (c.engine == engine) row = c.cost;
    }
    EXPECT_DOUBLE_EQ(plan->chosen_cost(), row) << EngineKindName(engine);
    EXPECT_DOUBLE_EQ(plan->estimated_instantiations,
                     unforced->estimated_instantiations);
  }
  // A single thread makes the parallel route ineligible, but a forced
  // parallel run still executes, so its row carries that run's price.
  PlannerOptions parallel = options;
  parallel.force_engine = EngineKind::kParallel;
  auto forced = PlanAuto(cycle, q, /*query_mode=*/false, 0, parallel);
  ASSERT_TRUE(forced.ok());
  EXPECT_GE(forced->chosen_cost(), CostOf(*unforced, EngineKind::kCompiled));
}

TEST(PlannedExecutionTest, PlannedOverloadsRunWithoutAProbe) {
  PlanCache cache;
  PlannerOptions options;
  options.cache = &cache;
  const Structure cycle = MakeDirectedCycle(8);
  auto sentence = PlanAuto(cycle, "forall x. exists y. E(x,y)",
                           /*query_mode=*/false, 0, options);
  auto query = PlanAuto(cycle, "exists y. E(x,y) & E(y,x)",
                        /*query_mode=*/true, 1, options);
  ASSERT_TRUE(sentence.ok());
  ASSERT_TRUE(query.ok());
  const PlanCacheStats before = cache.formula_stats();
  auto verdict = EvaluateAuto(cycle, *sentence, options);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(*verdict);
  auto rows = EvaluateQueryAuto(cycle, *query, {"x"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 0u);
  const PlanCacheStats after = cache.formula_stats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);

  // The query overload validates its outputs like the front doors do.
  EXPECT_FALSE(EvaluateQueryAuto(cycle, *query, {}).ok());
  EXPECT_FALSE(EvaluateQueryAuto(cycle, *query, {"x", "x"}).ok());
  // A sentence plan refuses an open formula's explanation.
  EXPECT_FALSE(EvaluateAuto(cycle, *query, options).ok());
}

TEST(PlannedExecutionTest, TooFewOutputsFailFastOnASingletonDomain) {
  // Pricing the extra output columns must not wrap around when the outputs
  // miss a free variable (a domain of one made that a 2^64-step loop).
  const Structure one = MakeDirectedCycle(1);
  auto rows = EvaluateQueryAuto(one, "E(x,y)", {"x"});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannedExecutionTest, PlanRejectsAStructureOverAnotherSignature) {
  PlannerOptions options;
  options.use_cache = false;
  auto plan = PlanAuto(MakeDirectedCycle(5), "exists x. exists y. E(x,y)",
                       /*query_mode=*/false, 0, options);
  ASSERT_TRUE(plan.ok());
  const Structure order = MakeLinearOrder(5);
  ASSERT_FALSE(order.signature() == MakeDirectedCycle(5).signature());
  auto verdict = EvaluateAuto(order, *plan, options);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kSignatureMismatch);
  auto rows = EvaluateQueryAuto(order, *plan, {});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kSignatureMismatch);
  EXPECT_FALSE(EvaluateAuto(order, PlanExplanation{}, options).ok());
}

TEST(PlannedExecutionTest, PlanOutlivesItsCacheEntry) {
  PlanCache cache;
  PlannerOptions options;
  options.cache = &cache;
  const Structure cycle = MakeDirectedCycle(6);
  for (EngineKind engine : {EngineKind::kCompiled, EngineKind::kDatalog,
                            EngineKind::kRelational}) {
    options.force_engine = engine;
    auto sentence = PlanAuto(cycle, "exists x. exists y. E(x,y) & E(y,x)",
                             /*query_mode=*/false, 0, options);
    auto query = PlanAuto(cycle, "exists z. E(x,z) & E(z,y)",
                          /*query_mode=*/true, 2, options);
    ASSERT_TRUE(sentence.ok());
    ASSERT_TRUE(query.ok());
    cache.Clear();
    auto verdict = EvaluateAuto(cycle, *sentence, options);
    ASSERT_TRUE(verdict.ok()) << EngineKindName(engine);
    EXPECT_FALSE(*verdict);
    auto rows = EvaluateQueryAuto(cycle, *query, {"x", "y"});
    ASSERT_TRUE(rows.ok()) << EngineKindName(engine);
    EXPECT_EQ(rows->size(), 6u);
    EXPECT_TRUE(rows->Contains({0, 2}));
  }
}

}  // namespace
}  // namespace fmtk
