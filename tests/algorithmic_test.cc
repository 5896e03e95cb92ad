#include <gtest/gtest.h>

#include "core/algorithmic/basic_local.h"
#include "core/algorithmic/bounded_degree.h"
#include "core/algorithmic/local_formula.h"
#include "eval/model_check.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "structures/generators.h"
#include "structures/graph.h"

namespace fmtk {
namespace {

TEST(DistanceFormulaTest, MatchesBfsDistances) {
  Structure p = MakeDirectedPath(7);
  Adjacency g = GaifmanAdjacency(p);
  for (std::size_t d = 0; d <= 4; ++d) {
    Formula delta = DistanceAtMostFormula("x", "y", d);
    for (Element a = 0; a < 7; ++a) {
      std::vector<std::size_t> dist = BfsDistances(g, {a});
      for (Element b = 0; b < 7; ++b) {
        Result<bool> holds = Satisfies(p, delta, {{"x", a}, {"y", b}});
        ASSERT_TRUE(holds.ok());
        EXPECT_EQ(*holds, dist[b] <= d)
            << "a=" << a << " b=" << b << " d=" << d;
      }
    }
  }
}

TEST(DistanceFormulaTest, IgnoresOrientation) {
  Structure p = MakeDirectedPath(3);
  Formula d1 = DistanceAtMostFormula("x", "y", 1);
  EXPECT_TRUE(*Satisfies(p, d1, {{"x", 1}, {"y", 0}}));  // Against the edge.
}

TEST(DistanceFormulaTest, LogarithmicRank) {
  EXPECT_EQ(QuantifierRank(DistanceAtMostFormula("x", "y", 0)), 0u);
  EXPECT_EQ(QuantifierRank(DistanceAtMostFormula("x", "y", 1)), 0u);
  EXPECT_LE(QuantifierRank(DistanceAtMostFormula("x", "y", 16)), 5u);
  EXPECT_LE(QuantifierRank(DistanceAtMostFormula("x", "y", 100)), 8u);
}

TEST(RelativizeTest, BoundsQuantifiersToTheBall) {
  // ∃y y != c sees other elements only inside the ball: on an edgeless
  // graph the 1-ball around c is just {c}.
  Structure isolated = MakeEmptyGraph(3);
  Formula other = *ParseFormula("exists y. y != c");
  EXPECT_TRUE(*Satisfies(isolated, other, {{"c", 0}}));
  Result<Formula> local = RelativizeToBall(other, "c", 1);
  ASSERT_TRUE(local.ok());
  EXPECT_FALSE(*Satisfies(isolated, *local, {{"c", 0}}));
  // On a path the neighbor is inside the ball.
  Structure p = MakeDirectedPath(3);
  EXPECT_TRUE(*Satisfies(p, *local, {{"c", 0}}));

  // Out-edges that LEAVE the ball are invisible: "some ball point has an
  // out-edge whose target has no out-edge" is true around c = 0 of a long
  // chain only because node 1's continuation is outside the ball.
  Structure chain = MakeDirectedPath(9);
  Formula far =
      *ParseFormula("exists y. exists z. E(y,z) & !(exists w. E(z,w))");
  Result<Formula> far_local = RelativizeToBall(far, "c", 1);
  ASSERT_TRUE(far_local.ok());
  EXPECT_TRUE(*Satisfies(chain, *far_local, {{"c", 0}}));
  // Unrelativized, node 1 visibly has an out-edge, but the chain still has
  // a genuine last edge, so the sentence is true too — with a different
  // witness (y=7, z=8).
  EXPECT_TRUE(*Satisfies(chain, far, {}));
  // Around the middle of the chain with radius 1 the ball {3,4,5} has
  // edges 3->4, 4->5 and 5's out-edge leaves the ball: true as well, with
  // z = 5 on the boundary.
  EXPECT_TRUE(*Satisfies(chain, *far_local, {{"c", 4}}));
}

TEST(RelativizeTest, RebindingCenterIsError) {
  Formula f = *ParseFormula("exists c. E(c,c)");
  Result<Formula> r = RelativizeToBall(f, "c", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RelativizeTest, AgreesWithNeighborhoodEvaluation) {
  // ψ evaluated on N_r(a) == relativized ψ evaluated in the full structure.
  const char* locals[] = {
      "exists y. E(x,y)",
      "forall y. !E(y,x)",
      "exists y. exists z. E(x,y) & E(y,z)",
  };
  std::vector<Structure> panel;
  panel.push_back(MakeDirectedPath(8));
  panel.push_back(MakeDirectedCycle(6));
  panel.push_back(MakeFullBinaryTree(3));
  for (const char* text : locals) {
    Formula psi = *ParseFormula(text);
    const std::size_t r = 2;
    for (const Structure& s : panel) {
      BasicLocalSentence sentence{1, r, psi, "x"};
      Result<std::vector<Element>> sat =
          LocallySatisfyingElements(s, sentence);
      ASSERT_TRUE(sat.ok());
      Result<Formula> relativized = RelativizeToBall(psi, "x", r);
      ASSERT_TRUE(relativized.ok());
      for (Element a = 0; a < s.domain_size(); ++a) {
        Result<bool> direct = Satisfies(s, *relativized, {{"x", a}});
        ASSERT_TRUE(direct.ok());
        const bool in_sat =
            std::find(sat->begin(), sat->end(), a) != sat->end();
        EXPECT_EQ(*direct, in_sat)
            << text << " at " << a << " in " << s.ToString();
      }
    }
  }
}

// --- Basic local sentences (E12) --------------------------------------------

TEST(BasicLocalTest, ScatteredWitnessSearch) {
  // "There are 2 points, 2r-scattered (r=1), each with out-degree >= 1."
  BasicLocalSentence sentence{2, 1, *ParseFormula("exists y. E(x,y)"), "x"};
  Structure long_path = MakeDirectedPath(8);
  Result<bool> on_long = EvaluateBasicLocal(long_path, sentence);
  ASSERT_TRUE(on_long.ok());
  EXPECT_TRUE(*on_long);
  // On a 3-chain every two out-degree-1 nodes are within distance 2.
  Structure short_path = MakeDirectedPath(3);
  Result<bool> on_short = EvaluateBasicLocal(short_path, sentence);
  ASSERT_TRUE(on_short.ok());
  EXPECT_FALSE(*on_short);
}

TEST(BasicLocalTest, CountZeroRejected) {
  BasicLocalSentence bad{0, 1, Formula::True(), "x"};
  EXPECT_FALSE(EvaluateBasicLocal(MakeDirectedPath(3), bad).ok());
}

TEST(BasicLocalTest, WrongFreeVariableRejected) {
  BasicLocalSentence bad{1, 1, *ParseFormula("E(x,y)"), "x"};
  EXPECT_FALSE(EvaluateBasicLocal(MakeDirectedPath(3), bad).ok());
}

TEST(BasicLocalTest, SemanticMatchesGeneratedSentence) {
  // Theorem 3.12 round-trip: the generated FO sentence agrees with the
  // semantic evaluator on a panel of graphs.
  std::vector<BasicLocalSentence> sentences;
  sentences.push_back({1, 1, *ParseFormula("exists y. E(x,y) & E(y,x)"),
                       "x"});
  sentences.push_back({2, 1, *ParseFormula("exists y. E(x,y)"), "x"});
  sentences.push_back({3, 0, Formula::True(), "x"});
  std::vector<Structure> panel;
  panel.push_back(MakeDirectedPath(7));
  panel.push_back(MakeDirectedCycle(2));
  panel.push_back(MakeDirectedCycle(8));
  panel.push_back(MakeDisjointCycles(2, 3));
  panel.push_back(MakeFullBinaryTree(2));
  panel.push_back(MakeEmptyGraph(4));
  for (const BasicLocalSentence& sentence : sentences) {
    Result<Formula> fo = BasicLocalToSentence(sentence);
    ASSERT_TRUE(fo.ok()) << fo.status().ToString();
    for (const Structure& s : panel) {
      Result<bool> semantic = EvaluateBasicLocal(s, sentence);
      Result<bool> direct = Satisfies(s, *fo);
      ASSERT_TRUE(semantic.ok() && direct.ok());
      EXPECT_EQ(*semantic, *direct)
          << "count=" << sentence.count << " r=" << sentence.radius
          << " on " << s.ToString();
    }
  }
}

// --- Bounded-degree linear-time evaluation (E11) ----------------------------

TEST(HanfParametersTest, RadiusGrowsAsPowerOfThree) {
  EXPECT_EQ(HanfParametersForRank(0).radius, 0u);
  EXPECT_EQ(HanfParametersForRank(1).radius, 1u);
  EXPECT_EQ(HanfParametersForRank(2).radius, 4u);
  EXPECT_EQ(HanfParametersForRank(3).radius, 13u);
  EXPECT_EQ(HanfParametersForRank(2).threshold, 3u);
}

TEST(BoundedDegreeTest, RequiresSentence) {
  Result<BoundedDegreeEvaluator> e =
      BoundedDegreeEvaluator::Create(*ParseFormula("E(x,y)"));
  EXPECT_FALSE(e.ok());
}

TEST(BoundedDegreeTest, AgreesWithDirectEvaluationOnChains) {
  const char* sentences[] = {
      "exists x. !(exists y. E(x,y))",        // There is a sink.
      "forall x. exists y. E(x,y) | E(y,x)",  // No isolated points.
      "exists x. exists y. E(x,y) & E(y,x)",  // A 2-cycle somewhere.
  };
  for (const char* text : sentences) {
    Formula f = *ParseFormula(text);
    Result<BoundedDegreeEvaluator> evaluator =
        BoundedDegreeEvaluator::Create(f);
    ASSERT_TRUE(evaluator.ok());
    for (std::size_t n = 1; n <= 40; n += 3) {
      Structure chain = MakeDirectedPath(n);
      Result<bool> fast = evaluator->Evaluate(chain);
      Result<bool> slow = Satisfies(chain, f);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow) << text << " n=" << n;
    }
  }
}

TEST(BoundedDegreeTest, CacheHitsOnAFamily) {
  Formula f = *ParseFormula("exists x. !(exists y. E(x,y))");
  Result<BoundedDegreeEvaluator> evaluator =
      BoundedDegreeEvaluator::Create(f);
  ASSERT_TRUE(evaluator.ok());
  for (std::size_t n = 30; n <= 60; ++n) {
    ASSERT_TRUE(evaluator->Evaluate(MakeDirectedPath(n)).ok());
  }
  // Long chains share one clipped type vector: mostly cache hits.
  EXPECT_GE(evaluator->cache_hits(), 25u);
  EXPECT_LE(evaluator->cache_misses(), 6u);
}

TEST(BoundedDegreeTest, MixedFamiliesGetDistinctVerdicts) {
  Formula f = *ParseFormula("exists x. !(exists y. E(x,y))");  // Sink exists.
  Result<BoundedDegreeEvaluator> evaluator = BoundedDegreeEvaluator::Create(
      f, {.radius = 2, .threshold = 2});
  ASSERT_TRUE(evaluator.ok());
  // Chains have a sink; cycles do not.
  for (std::size_t n = 12; n <= 20; ++n) {
    Structure chain = MakeDirectedPath(n);
    Structure cycle = MakeDirectedCycle(n);
    Result<bool> on_chain = evaluator->Evaluate(chain);
    Result<bool> on_cycle = evaluator->Evaluate(cycle);
    ASSERT_TRUE(on_chain.ok() && on_cycle.ok());
    EXPECT_TRUE(*on_chain);
    EXPECT_FALSE(*on_cycle);
  }
}

TEST(BoundedDegreeTest, ExplicitParametersRespected) {
  Formula f = *ParseFormula("exists x. E(x,x)");
  Result<BoundedDegreeEvaluator> evaluator = BoundedDegreeEvaluator::Create(
      f, {.radius = 3, .threshold = 5});
  ASSERT_TRUE(evaluator.ok());
  EXPECT_EQ(evaluator->radius(), 3u);
  EXPECT_EQ(evaluator->threshold(), 5u);
}

}  // namespace
}  // namespace fmtk
