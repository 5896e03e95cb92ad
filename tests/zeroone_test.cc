#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/zeroone/almost_sure.h"
#include "core/zeroone/mu.h"
#include "logic/analysis.h"
#include "eval/model_check.h"
#include "logic/parser.h"
#include "structures/generators.h"

namespace fmtk {
namespace {

// The survey's example sentences. Q2 is stated in the source as
// ∀x∀y∃z E(z,x) ∧ ¬E(z,y); read literally it is unsatisfiable at x = y, so
// the intended (and here used) reading carries the implicit distinctness
// guard.
const char* kQ1 = "forall x. forall y. E(x,y)";
const char* kQ2 =
    "forall x. forall y. x = y | (exists z. E(z,x) & !E(z,y))";

TEST(ExactMuTest, SmallCountsByHand) {
  // n = 1, {E/2}: two structures (loop or not).
  Result<MuEstimate> mu =
      ExactMu(*ParseFormula("exists x. E(x,x)"), Signature::Graph(), 1);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  EXPECT_TRUE(mu->exact);
  EXPECT_EQ(mu->total, 2u);
  EXPECT_EQ(mu->satisfied, 1u);
  EXPECT_DOUBLE_EQ(mu->value, 0.5);
}

TEST(ExactMuTest, TwoElementGraphs) {
  // n = 2: 2^4 = 16 structures. Q1 = complete with loops: only 1 satisfies.
  Result<MuEstimate> mu = ExactMu(*ParseFormula(kQ1), Signature::Graph(), 2);
  ASSERT_TRUE(mu.ok());
  EXPECT_EQ(mu->total, 16u);
  EXPECT_EQ(mu->satisfied, 1u);
}

TEST(ExactMuTest, EmptySignature) {
  // One structure per n; EVEN has no limit — μ_n alternates 1, 0, 1, ...
  Formula at_least_two = *ParseFormula("exists x y. x != y");
  Result<MuEstimate> mu1 = ExactMu(at_least_two, Signature::Empty(), 1);
  Result<MuEstimate> mu2 = ExactMu(at_least_two, Signature::Empty(), 2);
  ASSERT_TRUE(mu1.ok() && mu2.ok());
  EXPECT_DOUBLE_EQ(mu1->value, 0.0);
  EXPECT_DOUBLE_EQ(mu2->value, 1.0);
  // EVEN itself on sizes up to 8, as an FO(Cnt) size test: exactly 2, 4,
  // 6 or 8 elements.
  std::string even;
  for (int k = 2; k <= 8; k += 2) {
    even += std::string(even.empty() ? "" : " | ") + "((atleast " +
            std::to_string(k) + " x. x = x) & !(atleast " +
            std::to_string(k + 1) + " x. x = x))";
  }
  const Formula even_up_to_8 = *ParseFormula(even);
  for (std::size_t n = 1; n <= 8; ++n) {
    Result<MuEstimate> mu = ExactMu(even_up_to_8, Signature::Empty(), n);
    ASSERT_TRUE(mu.ok()) << mu.status().ToString();
    EXPECT_EQ(mu->total, 1u);
    EXPECT_DOUBLE_EQ(mu->value, n % 2 == 0 ? 1.0 : 0.0) << "n=" << n;
  }
}

TEST(ExactMuTest, RefusesHugeEnumerations) {
  Result<MuEstimate> mu =
      ExactMu(*ParseFormula(kQ1), Signature::Graph(), 6);  // 2^36 structures.
  EXPECT_FALSE(mu.ok());
  EXPECT_EQ(mu.status().code(), StatusCode::kUnsupported);
}

TEST(ExactMuTest, SentencesOnly) {
  EXPECT_FALSE(ExactMu(*ParseFormula("E(x,y)"), Signature::Graph(), 2).ok());
}

TEST(ExactMuTest, ConstantsMultiplyTheCount) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("P", 1).AddConstant("c");
  Result<MuEstimate> mu =
      ExactMu(*ParseFormula("P(c)", sig.get()), sig, 2);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  // 4 relation patterns x 2 constant choices = 8; P(c) holds in half.
  EXPECT_EQ(mu->total, 8u);
  EXPECT_EQ(mu->satisfied, 4u);
}

TEST(MonteCarloMuTest, TracksExactOnSmallN) {
  std::mt19937_64 rng(123);
  Formula has_edge = *ParseFormula("exists x. exists y. E(x,y)");
  Result<MuEstimate> exact = ExactMu(has_edge, Signature::Graph(), 3);
  Result<MuEstimate> sampled =
      MonteCarloMu(has_edge, Signature::Graph(), 3, 4000, rng);
  ASSERT_TRUE(exact.ok() && sampled.ok());
  EXPECT_FALSE(sampled->exact);
  EXPECT_NEAR(sampled->value, exact->value, 0.03);
}

TEST(MonteCarloMuTest, SurveyExamplesConverge) {
  std::mt19937_64 rng(7);
  // μ(Q1) -> 0: at n = 12 the probability is already astronomically small.
  Result<MuEstimate> q1 =
      MonteCarloMu(*ParseFormula(kQ1), Signature::Graph(), 12, 400, rng);
  ASSERT_TRUE(q1.ok());
  EXPECT_DOUBLE_EQ(q1->value, 0.0);
  // μ(Q2) -> 1: at n = 40 failures are very rare.
  Result<MuEstimate> q2 =
      MonteCarloMu(*ParseFormula(kQ2), Signature::Graph(), 40, 200, rng);
  ASSERT_TRUE(q2.ok());
  EXPECT_GE(q2->value, 0.95);
}

// --- Extension axioms --------------------------------------------------------

TEST(ExtensionAxiomTest, ShapeAndRank) {
  ExtensionPattern pattern;
  pattern.rows = {{true, false}, {false, true}};
  pattern.loop = false;
  Formula axiom = ExtensionAxiom(pattern);
  EXPECT_TRUE(FreeVariables(axiom).empty());
  EXPECT_EQ(QuantifierRank(axiom), 3u);  // ∀x1 ∀x2 ∃z.
}

TEST(ExtensionAxiomTest, HoldsOnLargeRandomGraphs) {
  // Each fixed extension axiom is almost surely true; check empirically.
  std::mt19937_64 rng(99);
  ExtensionPattern pattern;
  pattern.rows = {{true, true}};
  pattern.loop = false;
  Formula axiom = ExtensionAxiom(pattern);
  std::size_t holds = 0;
  const std::size_t trials = 30;
  for (std::size_t t = 0; t < trials; ++t) {
    // At n = 80 the per-graph failure probability is ~80 * (7/8)^79 ≈ 0.002.
    Structure g = MakeRandomStructure(Signature::Graph(), 80, 0.5, rng);
    Result<bool> v = Satisfies(g, axiom);
    ASSERT_TRUE(v.ok());
    holds += *v ? 1 : 0;
  }
  EXPECT_GE(holds, trials - 1);
}

TEST(ExtensionAxiomTest, ZeroNamedPoints) {
  ExtensionPattern pattern;  // Just "there is a non-loop z" / loop variant.
  pattern.loop = true;
  Formula axiom = ExtensionAxiom(pattern);
  EXPECT_EQ(QuantifierRank(axiom), 1u);
  Structure loop = MakeDirectedCycle(1);
  EXPECT_TRUE(*Satisfies(loop, axiom));
  EXPECT_FALSE(*Satisfies(MakeEmptyGraph(2), axiom));
}

// --- The almost-sure theory (0-1 law) ---------------------------------------

TEST(AlmostSureTest, SurveyExamples) {
  Result<bool> q1 = AlmostSurelyTrue(*ParseFormula(kQ1));
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_FALSE(*q1);  // μ(Q1) = 0.
  Result<bool> q2 = AlmostSurelyTrue(*ParseFormula(kQ2));
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(*q2);  // μ(Q2) = 1.
}

TEST(AlmostSureTest, SimpleAlmostSureFacts) {
  // Almost surely: there is an edge; there is a loop; the graph is not
  // complete; every point has an out-neighbor.
  EXPECT_TRUE(*AlmostSurelyTrue(*ParseFormula("exists x y. E(x,y)")));
  EXPECT_TRUE(*AlmostSurelyTrue(*ParseFormula("exists x. E(x,x)")));
  EXPECT_FALSE(*AlmostSurelyTrue(*ParseFormula("forall x. E(x,x)")));
  EXPECT_TRUE(
      *AlmostSurelyTrue(*ParseFormula("forall x. exists y. E(x,y)")));
  EXPECT_TRUE(*AlmostSurelyTrue(
      *ParseFormula("forall x y. x = y | (exists z. E(x,z) & E(y,z))")));
}

TEST(AlmostSureTest, ExtensionAxiomsAreAlmostSurelyTrue) {
  for (bool in1 : {false, true}) {
    for (bool out1 : {false, true}) {
      for (bool loop : {false, true}) {
        ExtensionPattern pattern;
        pattern.rows = {{in1, out1}};
        pattern.loop = loop;
        Result<bool> v = AlmostSurelyTrue(ExtensionAxiom(pattern));
        ASSERT_TRUE(v.ok());
        EXPECT_TRUE(*v);
      }
    }
  }
}

TEST(AlmostSureTest, AgreesWithMonteCarloOnAPanel) {
  // The exact decision procedure vs sampling at n = 40: the sampled μ_n
  // should be near the 0/1 verdict.
  const char* sentences[] = {
      "exists x y. E(x,y) & E(y,x)",
      "forall x. exists y. E(y,x) & !E(x,y)",
      "forall x y. E(x,y)",
      "exists x. forall y. E(x,y)",
  };
  std::mt19937_64 rng(2024);
  for (const char* text : sentences) {
    Formula f = *ParseFormula(text);
    Result<bool> verdict = AlmostSurelyTrue(f);
    ASSERT_TRUE(verdict.ok()) << text;
    Result<MuEstimate> mu =
        MonteCarloMu(f, Signature::Graph(), 40, 60, rng);
    ASSERT_TRUE(mu.ok());
    if (*verdict) {
      EXPECT_GE(mu->value, 0.9) << text;
    } else {
      EXPECT_LE(mu->value, 0.1) << text;
    }
  }
}

TEST(AlmostSureTest, RejectsNonGraphVocabulary) {
  Result<bool> v =
      AlmostSurelyTrue(*ParseFormula("exists x. P(x)"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupported);
}

TEST(AlmostSureTest, RejectsOpenFormulas) {
  Result<bool> v = AlmostSurelyTrue(*ParseFormula("E(x,y)"));
  EXPECT_FALSE(v.ok());
}

TEST(AlmostSureTest, ZeroOneLawShape) {
  // For every sentence in a panel the verdict is crisp 0 or 1 — the 0-1 law
  // in action (no sentence gets an intermediate limit).
  const char* sentences[] = {
      "exists x. E(x,x)",
      "forall x. exists y. x != y & E(x,y) & E(y,x)",
      "exists x y z. E(x,y) & E(y,z) & E(z,x)",
  };
  for (const char* text : sentences) {
    Result<bool> v = AlmostSurelyTrue(*ParseFormula(text));
    ASSERT_TRUE(v.ok()) << text;  // Always decided, never "in between".
  }
}

}  // namespace
}  // namespace fmtk
