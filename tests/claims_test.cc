// The survey's complexity claims as shapes on exact work counters. Each
// test runs a small fixed sweep and asserts the closed form or growth law
// the claim predicts. Only claims no other test pins live here; the other
// E1–E17 sections of EXPERIMENTS.md name the tests that guard them.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "core/algorithmic/bounded_degree.h"
#include "datalog/evaluator.h"
#include "eval/model_check.h"
#include "logic/parser.h"
#include "qbf/qbf.h"
#include "structures/generators.h"

namespace fmtk {
namespace {

// ∃x1 ... ∃xk E(x1,x1): false on loop-free graphs, so no quantifier
// short-circuits and the checker walks all n + n^2 + ... + n^k bindings.
Formula FullExplorationSentence(std::size_t rank) {
  std::string text;
  for (std::size_t i = 1; i <= rank; ++i) {
    text += "exists x" + std::to_string(i) + ". ";
  }
  return *ParseFormula(text + "E(x1,x1)");
}

std::uint64_t NodeVisits(const Structure& g, std::size_t rank) {
  ModelChecker checker(g);
  EXPECT_TRUE(checker.Check(FullExplorationSentence(rank)).ok());
  return checker.stats().node_visits;
}

// E1: O(n^k) model checking — polynomial in the data for a fixed sentence,
// exponential in the quantifier rank.
TEST(ClaimsTest, ModelCheckingVisitsGrowAsNToTheRank) {
  for (std::uint64_t n : {8, 16, 32, 64}) {
    // One visit per quantifier node instance plus one per atom instance.
    EXPECT_EQ(NodeVisits(MakeDirectedCycle(n), 3), 1 + n + n * n + n * n * n)
        << "n=" << n;
  }
  const Structure g = MakeDirectedCycle(12);
  std::uint64_t previous = NodeVisits(g, 1);
  EXPECT_EQ(previous, 13u);
  for (std::size_t rank = 2; rank <= 4; ++rank) {
    // Each extra quantifier repeats the whole previous work once per
    // element, plus its own node.
    const std::uint64_t visits = NodeVisits(g, rank);
    EXPECT_EQ(visits, 12 * previous + 1) << "rank=" << rank;
    previous = visits;
  }
}

// E2: QBF solving is exponential in the number of variables, while the
// reduction to model checking on a fixed 2-element structure is linear.
TEST(ClaimsTest, QbfSolvingIsExponentialWhileItsReductionIsLinear) {
  std::mt19937_64 rng(424242);
  std::uint64_t previous = 0;
  for (std::size_t vars = 2; vars <= 12; vars += 2) {
    std::uint64_t assignments = 0;
    for (int trial = 0; trial < 10; ++trial) {
      // 2·vars clauses of width 3 under alternating quantifiers.
      Qbf f = MakeRandomQbf(vars, 2 * vars, rng);
      QbfStats stats;
      ASSERT_TRUE(SolveQbf(f, &stats).ok());
      assignments += stats.assignments_tried;
      Result<QbfAsModelChecking> reduced = ReduceToModelChecking(f);
      ASSERT_TRUE(reduced.ok());
      // The reduction maps each QBF node to one FO node, and the QBF has
      // vars quantifiers, one ∧, 2·vars ∨, 6·vars literals and up to
      // 6·vars negations.
      const std::size_t nodes = reduced->sentence.NodeCount();
      EXPECT_EQ(nodes, f.NodeCount());
      EXPECT_GE(nodes, 9 * vars + 1);
      EXPECT_LE(nodes, 15 * vars + 1);
    }
    if (previous > 0) {
      // Two more variables at least 1.8× the work (2× in the limit).
      EXPECT_GE(10 * assignments, 18 * previous) << "vars=" << vars;
    }
    previous = assignments;
  }
}

// E11: on bounded degree, the type-based evaluator's histogram pass is
// linear in n while the naive checker's work is quadratic.
TEST(ClaimsTest, BoundedDegreePassIsLinearWhereNaiveCheckIsQuadratic) {
  // "Has a sink": the inner ∃ scans up to each element's successor.
  const Formula sink = *ParseFormula("exists x. !(exists y. E(x,y))");
  constexpr std::uint64_t kRadius = 2;
  for (std::uint64_t n = 16; n <= 256; n *= 2) {
    const Structure chain = MakeDirectedPath(n);
    ModelChecker checker(chain);
    ASSERT_TRUE(checker.Check(sink).ok());
    // n outer bindings; element x < n-1 stops at y = x+1, the sink scans
    // all n.
    EXPECT_EQ(checker.stats().quantifier_instantiations,
              n * (n + 1) / 2 + 2 * n - 1)
        << "n=" << n;

    Result<BoundedDegreeEvaluator> evaluator = BoundedDegreeEvaluator::Create(
        sink, {.radius = kRadius, .threshold = 3});
    ASSERT_TRUE(evaluator.ok());
    ASSERT_TRUE(evaluator->Evaluate(chain).ok());
    // Every radius-2 ball holds 2r+1 chain nodes, less the r(r+1) the two
    // ends cut off: visits per element stay below 2r+1 at every size.
    EXPECT_EQ(evaluator->locality_stats().bfs_node_visits,
              (2 * kRadius + 1) * n - kRadius * (kRadius + 1))
        << "n=" << n;
  }
}

// E14: transitive closure is a fixed point whose depth grows with the
// data, and semi-naive evaluation derives each tuple exactly once.
TEST(ClaimsTest, TransitiveClosureTakesNRoundsAndDerivesEachTupleOnce) {
  for (std::uint64_t n : {8, 16, 32, 64}) {
    DatalogStats stats;
    ASSERT_TRUE(EvaluateDatalog(DatalogProgram::TransitiveClosure(),
                                MakeDirectedPath(n),
                                DatalogStrategy::kSemiNaive, &stats)
                    .ok());
    // n-1 rounds close paths of length 1..n-1; one more finds nothing.
    EXPECT_EQ(stats.iterations, n) << "n=" << n;
    EXPECT_EQ(stats.tuples_new, n * (n - 1) / 2) << "n=" << n;
    EXPECT_EQ(stats.tuples_derived, stats.tuples_new) << "n=" << n;
  }
}

}  // namespace
}  // namespace fmtk
