#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "eval/compiled_eval.h"
#include "eval/model_check.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/random_formula.h"
#include "structures/generators.h"

namespace fmtk {
namespace {

Formula Parse(const char* text) {
  Result<Formula> f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
  return *f;
}

// Runs compile + evaluate, folding compile-time errors into the result so
// the two pipelines can be compared end to end.
Result<bool> CompiledVerdict(const Structure& s, const Formula& f,
                             const VarAssignment& assignment,
                             ParallelPolicy policy = {}) {
  Result<CompiledEvaluator> eval = CompiledEvaluator::Compile(s, f, policy);
  if (!eval.ok()) {
    return eval.status();
  }
  return eval->Evaluate(assignment);
}

TEST(CompiledEvalTest, BasicSentences) {
  Structure p = MakeDirectedPath(3);
  EXPECT_TRUE(*CompiledVerdict(p, Parse("exists x y. E(x,y)"), {}));
  EXPECT_FALSE(*CompiledVerdict(p, Parse("exists x. E(x,x)"), {}));
  EXPECT_TRUE(
      *CompiledVerdict(p, Parse("forall x y. E(x,y) -> !E(y,x)"), {}));
  Structure empty = MakeEmptyGraph(0);
  EXPECT_FALSE(*CompiledVerdict(empty, Parse("exists x. true"), {}));
  EXPECT_TRUE(*CompiledVerdict(empty, Parse("forall x. false"), {}));
}

TEST(CompiledEvalTest, FreeVariablesAndShadowing) {
  Structure p = MakeDirectedPath(4);
  Formula f = Parse("E(x,y)");
  EXPECT_TRUE(*CompiledVerdict(p, f, {{"x", 0}, {"y", 1}}));
  EXPECT_FALSE(*CompiledVerdict(p, f, {{"x", 1}, {"y", 0}}));
  Result<bool> unbound = CompiledVerdict(p, f, {{"x", 0}});
  EXPECT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kInvalidArgument);
  Formula shadow = Parse("(exists x. E(x,x)) | E(x,y)");
  EXPECT_TRUE(*CompiledVerdict(p, shadow, {{"x", 0}, {"y", 1}}));
}

TEST(CompiledEvalTest, ErrorClassificationMatchesInterpreter) {
  Structure p = MakeDirectedPath(3);
  Result<bool> unknown_rel = CompiledVerdict(p, Parse("exists x. F(x,x)"), {});
  EXPECT_FALSE(unknown_rel.ok());
  EXPECT_EQ(unknown_rel.status().code(), StatusCode::kSignatureMismatch);

  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure s(sig, 2);
  Result<bool> uninterpreted =
      CompiledVerdict(s, Parse("exists x. E(x,c)"), {});
  EXPECT_FALSE(uninterpreted.ok());
  EXPECT_EQ(uninterpreted.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompiledEvalTest, BindRejectsForeignSignature) {
  Structure p = MakeDirectedPath(3);
  Result<CompiledFormula> plan =
      CompiledFormula::Compile(Parse("exists x. E(x,x)"), p.signature());
  ASSERT_TRUE(plan.ok());
  auto other = std::make_shared<Signature>();
  other->AddRelation("R", 1);
  Structure foreign(other, 3);
  Result<CompiledEvaluator> bound = CompiledEvaluator::Bind(*plan, foreign);
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kSignatureMismatch);
}

TEST(CompiledEvalTest, QuantifierPruningUsesPostingLists) {
  // One edge in a large domain: ∃x∃y E(x,y) should instantiate the inner
  // quantifier from E's second column, not the 100-element domain.
  Structure g = MakeEmptyGraph(100);
  g.AddTuple(0u, {7, 9});
  Result<CompiledEvaluator> eval =
      CompiledEvaluator::Compile(g, Parse("exists x y. E(x,y)"));
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(*eval->Evaluate());
  EXPECT_GE(eval->stats().index_hits, 1u);
  // The inner loop saw only column values, so total instantiations stay far
  // below the 100 + 100*100 of a full scan.
  EXPECT_LE(eval->stats().quantifier_instantiations, 100u + 2u);

  // Universal guard form: ∀x (E(x,x) -> false) only visits elements that
  // occur in E's first column — just 7, from the single edge (7,9).
  Result<CompiledEvaluator> forall =
      CompiledEvaluator::Compile(g, Parse("forall x. E(x,x) -> false"));
  ASSERT_TRUE(forall.ok());
  EXPECT_TRUE(*forall->Evaluate());
  EXPECT_GE(forall->stats().index_hits, 1u);
  EXPECT_EQ(forall->stats().quantifier_instantiations, 1u);
}

TEST(CompiledEvalTest, PruningKeepsVerdictsOnSparseRelations) {
  std::mt19937_64 rng(11);
  const char* sentences[] = {
      "exists x. exists y. E(x,y) & !E(y,x)",
      "forall x. E(x,x) -> (exists y. E(x,y) & x != y)",
      "exists x. E(x,x)",
      "forall x. forall y. E(x,y) -> E(y,x)",
  };
  for (int trial = 0; trial < 10; ++trial) {
    Structure g = MakeRandomGraph(12, 0.05, rng);
    for (const char* text : sentences) {
      Formula f = Parse(text);
      ModelChecker oracle(g);
      Result<bool> expected = oracle.Check(f);
      Result<bool> actual = CompiledVerdict(g, f, {});
      ASSERT_TRUE(expected.ok() && actual.ok());
      EXPECT_EQ(*expected, *actual) << text;
    }
  }
}

TEST(CompiledEvalTest, ParallelPolicyMatchesSequential) {
  ParallelPolicy parallel;
  parallel.enabled = true;
  parallel.num_threads = 4;
  parallel.min_domain = 8;
  std::mt19937_64 rng(3);
  const char* sentences[] = {
      "forall x. exists y. E(x,y)",
      "exists x. forall y. E(x,y) | x = y",
      "forall x y. E(x,y) -> E(y,x)",
      "exists x. E(x,x)",
  };
  for (int trial = 0; trial < 5; ++trial) {
    Structure g = MakeRandomGraph(60, 0.1, rng);
    for (const char* text : sentences) {
      Formula f = Parse(text);
      Result<bool> sequential = CompiledVerdict(g, f, {});
      Result<bool> fanned = CompiledVerdict(g, f, {}, parallel);
      ASSERT_TRUE(sequential.ok() && fanned.ok()) << text;
      EXPECT_EQ(*sequential, *fanned) << text;
    }
  }
}

TEST(CompiledEvalTest, ParallelPolicyPropagatesErrors) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure s(sig, 64);  // Constant left uninterpreted.
  ParallelPolicy parallel;
  parallel.enabled = true;
  parallel.num_threads = 4;
  parallel.min_domain = 8;
  Result<bool> r =
      CompiledVerdict(s, Parse("forall x. E(x,c)"), {}, parallel);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The PR's acceptance gate: the compiled evaluator and the interpreting
// ModelChecker agree — same verdict, or same error classification — on
// hundreds of random formula/structure pairs, including open formulas with
// partially unbound assignments and uninterpreted constants.
TEST(CompiledDifferentialTest, AgreesWithInterpreterOn500RandomPairs) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddRelation("P", 1).AddRelation("T", 3);
  sig->AddRelation("Q", 0);
  sig->AddConstant("c");

  std::mt19937_64 rng(20260807);
  RandomFormulaOptions options;
  options.max_depth = 5;
  options.variable_pool = 3;
  options.counting = true;

  std::bernoulli_distribution drop_constants(0.3);
  std::bernoulli_distribution add_constant_atom(0.35);
  std::bernoulli_distribution quantify(0.5);
  std::bernoulli_distribution bind_var(0.85);
  std::uniform_int_distribution<std::size_t> pick_n(0, 5);

  std::size_t pairs = 0;
  std::size_t error_pairs = 0;
  while (pairs < 500) {
    const std::size_t n = pick_n(rng);
    Structure s = MakeRandomStructure(sig, n, 0.4, rng);
    if (drop_constants(rng)) {
      // Rebuild without constant interpretations to hit the lazy
      // "uninterpreted constant" error path.
      Structure bare(sig, n);
      for (std::size_t r = 0; r < sig->relation_count(); ++r) {
        for (const Tuple& t : s.relation(r).tuples()) {
          bare.AddTuple(r, t);
        }
      }
      s = std::move(bare);
    }

    Formula f = quantify(rng) ? MakeRandomSentence(*sig, options, rng)
                              : MakeRandomFormula(*sig, options, rng);
    if (add_constant_atom(rng)) {
      f = Formula::And(Formula::Atom("P", {C("c")}), std::move(f));
    }

    VarAssignment assignment;
    for (const std::string& v : FreeVariables(f)) {
      if (bind_var(rng)) {
        assignment[v] =
            n == 0 ? 0
                   : std::uniform_int_distribution<Element>(
                         0, static_cast<Element>(n - 1))(rng);
      }
    }

    ModelChecker oracle(s);
    Result<bool> expected = oracle.Check(f, assignment);
    Result<bool> actual = CompiledVerdict(s, f, assignment);

    ASSERT_EQ(expected.ok(), actual.ok())
        << f.ToString() << "\nn=" << n
        << "\ninterpreter: " << expected.status().ToString()
        << "\ncompiled:    " << actual.status().ToString();
    if (expected.ok()) {
      ASSERT_EQ(*expected, *actual) << f.ToString() << "\nn=" << n;
    } else {
      ASSERT_EQ(expected.status().code(), actual.status().code())
          << f.ToString() << "\ninterpreter: "
          << expected.status().ToString()
          << "\ncompiled:    " << actual.status().ToString();
      ++error_pairs;
    }
    ++pairs;
  }
  // The sweep must actually exercise the error paths, not just verdicts.
  EXPECT_GE(error_pairs, 10u);
}

// A guard-shaped sentence for the correlated-guard differential: a chain of
// two or three quantifiers over x1..x3 whose bodies lead with a guard atom
// tying the quantified variable to the enclosing one, at any column of E/2
// or T/3 (T's spare column repeats one of the two, so ∃^{≥k} over T meets
// duplicate candidates), then a random tail. The innermost body may hold a
// constant c the structure leaves uninterpreted or a free variable w the
// assignment leaves unbound, mostly after the guard and sometimes before
// it. Names are sometimes reused, shadowing an enclosing binding.
Formula GuardShapedFormula(const Signature& sig, std::mt19937_64& rng) {
  auto pick = [&](std::size_t k) {
    return std::uniform_int_distribution<std::size_t>(0, k - 1)(rng);
  };
  const std::size_t depth = 2 + pick(2);
  std::vector<std::string> names = {"x1", "x2", "x3"};
  if (pick(5) == 0) {
    names[depth - 1] = names[pick(depth - 1)];  // Shadow an outer name.
  }
  RandomFormulaOptions tail_options;
  tail_options.max_depth = 3;
  tail_options.variable_pool = 3;
  tail_options.counting = true;
  Formula body = MakeRandomFormula(sig, tail_options, rng);
  std::optional<Formula> hazard;
  switch (pick(3)) {
    case 0:
      hazard = Formula::Atom("P", {C("c")});
      break;
    case 1:
      hazard = Formula::Atom("E", {V(names[depth - 1]), V("w")});
      break;
    default:
      break;
  }
  // Usually after the innermost guard; sometimes before it, where it must
  // stop guard collection (a skipped element would hide its error).
  const bool hazard_first = pick(3) == 0;
  if (hazard.has_value() && !hazard_first) {
    body = Formula::And(*hazard, std::move(body));
  }
  for (std::size_t level = depth; level-- > 0;) {
    const std::string& v = names[level];
    std::optional<Formula> guard;
    if (level > 0) {
      const std::string& outer = names[level - 1];
      if (pick(2) == 0) {
        guard = pick(2) == 0 ? Formula::Atom("E", {V(outer), V(v)})
                             : Formula::Atom("E", {V(v), V(outer)});
      } else {
        std::vector<Term> terms(3, V(pick(2) == 0 ? v : outer));
        const std::size_t at_v = pick(3);
        const std::size_t at_outer = (at_v + 1 + pick(2)) % 3;
        terms[at_v] = V(v);
        terms[at_outer] = V(outer);
        guard = Formula::Atom("T", std::move(terms));
      }
    } else if (pick(2) == 0) {
      guard = Formula::Atom("P", {V(v)});
    }
    if (guard.has_value() && pick(6) == 0) {
      guard = Formula::And(Formula::True(), *std::move(guard));
    }
    if (level + 1 == depth && hazard.has_value() && hazard_first) {
      guard = Formula::And(*hazard, *std::move(guard));
    }
    switch (pick(4)) {
      case 0:
        body = Formula::Forall(
            v, guard.has_value() ? Formula::Implies(*guard, std::move(body))
                                 : std::move(body));
        break;
      case 1:
        body = Formula::CountExists(
            1 + pick(3), v,
            guard.has_value() ? Formula::And(*guard, std::move(body))
                              : std::move(body));
        break;
      default:
        body = Formula::Exists(
            v, guard.has_value() ? Formula::And(*guard, std::move(body))
                                 : std::move(body));
        break;
    }
  }
  return body;
}

// A structure whose relations are stored three ways: Add-built in
// generation order, Add-built in shuffled order (tail postings out of
// ascending order) and bulk-built (CSR postings).
Structure GuardTestStructure(const std::shared_ptr<Signature>& sig,
                             std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> density(0.05, 0.6);
  Structure s = MakeRandomStructure(sig, n, density(rng), rng);
  const std::size_t storage = std::uniform_int_distribution<int>(0, 3)(rng);
  const bool interpret_constant = storage != 3;
  if (storage == 0) {
    return s;
  }
  Structure rebuilt(sig, n);
  for (std::size_t r = 0; r < sig->relation_count(); ++r) {
    std::vector<Tuple> tuples = s.relation(r).tuples();
    if (storage == 1 && !tuples.empty() && tuples[0].size() > 0) {
      std::sort(tuples.begin(), tuples.end());
      std::vector<Element> rows;
      for (const Tuple& t : tuples) {
        rows.insert(rows.end(), t.begin(), t.end());
      }
      rebuilt.SetRelation(
          r, Relation::FromSortedRows(tuples[0].size(), std::move(rows)));
      continue;
    }
    std::shuffle(tuples.begin(), tuples.end(), rng);
    for (const Tuple& t : tuples) {
      rebuilt.AddTuple(r, t);
    }
  }
  if (interpret_constant && n > 0) {
    rebuilt.SetConstant(0, *s.constant(0));
  }
  return rebuilt;
}

// The correlated-guard acceptance gate: on guard-shaped formulas the
// compiled evaluator (enumerating from posting lists at the outer
// variable's value) and the interpreting ModelChecker return the same
// verdict or the same error, code and message.
TEST(CompiledDifferentialTest, CorrelatedGuardsAgreeWithInterpreter) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddRelation("T", 3).AddRelation("P", 1);
  sig->AddConstant("c");

  std::mt19937_64 rng(20261017);
  std::size_t correlated = 0;
  std::size_t over_t = 0;
  std::size_t error_pairs = 0;
  for (std::size_t pair = 0; pair < 600; ++pair) {
    const std::size_t n = std::uniform_int_distribution<std::size_t>(0, 6)(rng);
    const Structure s = GuardTestStructure(sig, n, rng);
    const Formula f = GuardShapedFormula(*sig, rng);
    VarAssignment assignment;
    if (n > 0 && std::bernoulli_distribution(0.5)(rng)) {
      assignment["w"] = static_cast<Element>(n - 1);
    }

    Result<CompiledFormula> plan = CompiledFormula::Compile(f, *sig);
    ASSERT_TRUE(plan.ok()) << f.ToString();
    for (const QuantifierGuard& guard : plan->guards()) {
      if (guard.kind != GuardKind::kCorrelated) continue;
      ++correlated;
      if (guard.columns[0].first == 1) ++over_t;
    }

    ModelChecker oracle(s);
    Result<bool> expected = oracle.Check(f, assignment);
    Result<bool> actual = CompiledVerdict(s, f, assignment);
    ASSERT_EQ(expected.ok(), actual.ok())
        << f.ToString() << "\nn=" << n
        << "\ninterpreter: " << expected.status().ToString()
        << "\ncompiled:    " << actual.status().ToString();
    if (expected.ok()) {
      ASSERT_EQ(*expected, *actual) << f.ToString() << "\nn=" << n;
    } else {
      ASSERT_EQ(expected.status().code(), actual.status().code())
          << f.ToString();
      ASSERT_EQ(expected.status().message(), actual.status().message())
          << f.ToString();
      ++error_pairs;
    }
  }
  // The sweep must exercise what it is for: correlated guards (over T
  // too, where candidates repeat) and errors raised after a guard.
  EXPECT_GE(correlated, 500u);
  EXPECT_GE(over_t, 100u);
  EXPECT_GE(error_pairs, 50u);
}

// ∀x∃y E(x,y) on a directed cycle: the inner quantifier enumerates x's one
// successor from E's postings, so the sentence costs 2n instantiations
// instead of the n^2/2 a static column scan makes.
TEST(CompiledEvalTest, CorrelatedGuardMakesForallExistsLinear) {
  const Structure cycle = MakeDirectedCycle(1024);
  Result<CompiledEvaluator> eval =
      CompiledEvaluator::Compile(cycle, Parse("forall x. exists y. E(x,y)"));
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(*eval->Evaluate());
  EXPECT_LE(eval->stats().quantifier_instantiations, 2u * 1024u);
  EXPECT_EQ(eval->stats().index_hits, 1024u);

  // The predecessor form probes E's second column.
  Result<CompiledEvaluator> pred =
      CompiledEvaluator::Compile(cycle, Parse("forall x. exists y. E(y,x)"));
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred->Evaluate());
  EXPECT_LE(pred->stats().quantifier_instantiations, 2u * 1024u);
}

// Unknown symbols classify identically through both pipelines.
TEST(CompiledDifferentialTest, UnknownSymbolClassification) {
  Structure p = MakeDirectedPath(4);
  const Formula cases[] = {
      Parse("exists x. Missing(x)"),
      Parse("forall x. E(x,x,x)"),  // Arity mismatch.
      Formula::Equal(C("ghost"), V("x")),
  };
  for (const Formula& f : cases) {
    ModelChecker oracle(p);
    Result<bool> expected = oracle.Check(f, {{"x", 0}});
    Result<bool> actual = CompiledVerdict(p, f, {{"x", 0}});
    ASSERT_FALSE(expected.ok()) << f.ToString();
    ASSERT_FALSE(actual.ok()) << f.ToString();
    EXPECT_EQ(expected.status().code(), actual.status().code())
        << f.ToString();
    EXPECT_EQ(actual.status().code(), StatusCode::kSignatureMismatch)
        << f.ToString();
  }
}

TEST(CompiledEvalTest, EvaluateRowFastPath) {
  Structure p = MakeDirectedPath(4);
  Result<CompiledEvaluator> eval =
      CompiledEvaluator::Compile(p, Parse("E(x,y)"));
  ASSERT_TRUE(eval.ok());
  ASSERT_EQ(eval->free_variables(), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(*eval->EvaluateRow({0, 1}));
  EXPECT_FALSE(*eval->EvaluateRow({1, 0}));
}

TEST(CompiledEvalTest, StatsCountShortCircuitsAndPrint) {
  Structure p = MakeDirectedPath(3);
  Result<CompiledEvaluator> eval = CompiledEvaluator::Compile(
      p, Parse("forall x. E(x,x) & true | !E(x,x)"));
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval->Evaluate().ok());
  EXPECT_GE(eval->stats().short_circuits, 1u);
  const std::string text = eval->stats().ToString();
  EXPECT_NE(text.find("node_visits="), std::string::npos);
  EXPECT_NE(text.find("short_circuits="), std::string::npos);
  EXPECT_NE(text.find("index_hits="), std::string::npos);
  eval->ResetStats();
  EXPECT_EQ(eval->stats().node_visits, 0u);
}

}  // namespace
}  // namespace fmtk
