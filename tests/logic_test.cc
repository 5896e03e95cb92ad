#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "logic/analysis.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "logic/transform.h"

namespace fmtk {
namespace {

TEST(FormulaTest, FactoriesAndAccessors) {
  Formula atom = Formula::Atom("E", {V("x"), V("y")});
  EXPECT_EQ(atom.kind(), FormulaKind::kAtom);
  EXPECT_EQ(atom.relation_name(), "E");
  EXPECT_EQ(atom.terms().size(), 2u);
  EXPECT_TRUE(atom.is_atomic());

  Formula q = Formula::Exists("x", atom);
  EXPECT_EQ(q.kind(), FormulaKind::kExists);
  EXPECT_EQ(q.variable(), "x");
  EXPECT_EQ(q.body(), atom);
  EXPECT_FALSE(q.is_atomic());
}

TEST(FormulaTest, DefaultIsTrue) {
  Formula f;
  EXPECT_EQ(f.kind(), FormulaKind::kTrue);
}

TEST(FormulaTest, StructuralEquality) {
  Formula a = Formula::And(Formula::Atom("P", {V("x")}), Formula::True());
  Formula b = Formula::And(Formula::Atom("P", {V("x")}), Formula::True());
  Formula c = Formula::And(Formula::True(), Formula::Atom("P", {V("x")}));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);  // Order matters structurally.
}

TEST(FormulaTest, MultiQuantifierFactory) {
  Formula f = Formula::Exists(std::vector<std::string>{"x", "y"},
                              Formula::Equal(V("x"), V("y")));
  EXPECT_EQ(f.kind(), FormulaKind::kExists);
  EXPECT_EQ(f.variable(), "x");
  EXPECT_EQ(f.body().variable(), "y");
}

TEST(FormulaTest, AllDistinct) {
  Formula f = Formula::AllDistinct({"x", "y", "z"});
  EXPECT_EQ(f.kind(), FormulaKind::kAnd);
  EXPECT_EQ(f.child_count(), 3u);  // C(3,2) inequalities.
  EXPECT_EQ(Formula::AllDistinct({"x"}).child_count(), 0u);
}

TEST(FormulaTest, NodeCount) {
  Formula f = Formula::Not(Formula::And(Formula::True(), Formula::False()));
  EXPECT_EQ(f.NodeCount(), 4u);
}

TEST(QuantifierRankTest, SurveyExample) {
  // qr( forall x [exists w P(x,w) & exists y exists z R(x,y,z)] ) = 3.
  Result<Formula> f = ParseFormula(
      "forall x. (exists w. P(x,w)) & (exists y. exists z. R(x,y,z))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(QuantifierRank(*f), 3u);
}

TEST(QuantifierRankTest, Basics) {
  EXPECT_EQ(QuantifierRank(Formula::True()), 0u);
  EXPECT_EQ(QuantifierRank(Formula::Atom("P", {V("x")})), 0u);
  Formula g = Formula::Exists("x", Formula::Forall("y", Formula::True()));
  EXPECT_EQ(QuantifierRank(g), 2u);
  EXPECT_EQ(QuantifierRank(Formula::Not(g)), 2u);
  // Parallel quantifiers take the max, not the sum.
  Formula parallel = Formula::And(g, g);
  EXPECT_EQ(QuantifierRank(parallel), 2u);
  EXPECT_EQ(QuantifierCount(parallel), 4u);
}

TEST(FreeVariablesTest, BindingAndShadowing) {
  Result<Formula> f = ParseFormula("E(x,y) & exists x. E(x,z)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(FreeVariables(*f), (std::set<std::string>{"x", "y", "z"}));
  EXPECT_EQ(AllVariables(*f), (std::set<std::string>{"x", "y", "z"}));

  Result<Formula> sentence = ParseFormula("forall x. exists y. E(x,y)");
  ASSERT_TRUE(sentence.ok());
  EXPECT_TRUE(FreeVariables(*sentence).empty());
}

TEST(FreeVariablesTest, ConstantsAreNotVariables) {
  Signature sig;
  sig.AddRelation("E", 2).AddConstant("c");
  Result<Formula> f = ParseFormula("E(x,c)", &sig);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(FreeVariables(*f), (std::set<std::string>{"x"}));
}

TEST(ParserTest, RoundTripsThroughToString) {
  const char* inputs[] = {
      "true",
      "false",
      "E(x,y)",
      "x = y",
      "!E(x,x)",
      "E(x,y) & E(y,z) | E(x,z)",
      "E(x,y) -> E(y,x) -> E(x,x)",
      "P(x) <-> Q(x)",
      "exists x. forall y. E(x,y)",
      "forall x. (exists w. P(x,w)) & Q(x)",
  };
  for (const char* text : inputs) {
    Result<Formula> f = ParseFormula(text);
    ASSERT_TRUE(f.ok()) << text << ": " << f.status().ToString();
    Result<Formula> again = ParseFormula(f->ToString());
    ASSERT_TRUE(again.ok()) << f->ToString();
    EXPECT_EQ(*f, *again) << text << " vs " << f->ToString();
  }
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  // & binds tighter than |, which binds tighter than ->, then <->.
  Result<Formula> f = ParseFormula("P(x) | Q(x) & R(x) -> S(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->child(0).kind(), FormulaKind::kOr);
  EXPECT_EQ(f->child(0).child(1).kind(), FormulaKind::kAnd);
  // Implication is right-associative.
  Result<Formula> g = ParseFormula("P(x) -> Q(x) -> R(x)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->child(1).kind(), FormulaKind::kImplies);
}

TEST(ParserTest, QuantifierScopeExtendsRight) {
  Result<Formula> f = ParseFormula("exists x. P(x) & Q(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kExists);
  EXPECT_EQ(f->body().kind(), FormulaKind::kAnd);
}

TEST(ParserTest, MultipleQuantifiedVariables) {
  Result<Formula> f = ParseFormula("exists x y z. x != y");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(QuantifierRank(*f), 3u);
  Result<Formula> g = ParseFormula("exists x, y. E(x,y)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(QuantifierRank(*g), 2u);
}

TEST(ParserTest, InfixLessAndInequality) {
  Result<Formula> f = ParseFormula("x < y");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kAtom);
  EXPECT_EQ(f->relation_name(), "<");

  Result<Formula> g = ParseFormula("x != y");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->kind(), FormulaKind::kNot);
  EXPECT_EQ(g->child(0).kind(), FormulaKind::kEqual);
}

TEST(ParserTest, WordOperators) {
  Result<Formula> f =
      ParseFormula("not P(x) and Q(x) or all y . E(x,y)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FormulaKind::kOr);
}

TEST(ParserTest, ZeroAryAtom) {
  Result<Formula> f = ParseFormula("flag & P(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->child(0).kind(), FormulaKind::kAtom);
  EXPECT_TRUE(f->child(0).terms().empty());
}

TEST(ParserTest, ConstantsResolvedAgainstSignature) {
  Signature sig;
  sig.AddRelation("E", 2).AddConstant("c");
  Result<Formula> f = ParseFormula("E(c,x)", &sig);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->terms()[0].is_constant());
  EXPECT_TRUE(f->terms()[1].is_variable());
  // Without the signature, "c" is a variable.
  Result<Formula> g = ParseFormula("E(c,x)");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->terms()[0].is_variable());
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(ParseFormula("E(x,").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("exists . P(x)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("P(x) &").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("(P(x)").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("P(x) Q(x)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("@").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("x - y").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, CountNumeralsAreCheckedDecimals) {
  // An oversized count once escaped as std::out_of_range; one past 32 bits
  // was accepted and then truncated by the compiled evaluator.
  for (const char* text : {"atleast 99999999999999999999999 x . x = x",
                           "atleast 4294967296 x . x = x"}) {
    Result<Formula> f = ParseFormula(text);
    ASSERT_FALSE(f.ok()) << text;
    EXPECT_EQ(f.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(f.status().message().find("at offset 8"), std::string::npos)
        << f.status().ToString();
  }
  Result<Formula> largest = ParseFormula("atleast 4294967295 x . x = x");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->count(), 4294967295u);
}

std::string Repeat(const std::string& piece, std::size_t times) {
  std::string out;
  for (std::size_t i = 0; i < times; ++i) {
    out += piece;
  }
  return out;
}

TEST(ParserTest, NestingPastTheCapIsAParseError) {
  // 20,000 levels of '!' or '(' once overflowed the parser's stack; the
  // chain and the quantifier block build a 20,000-high formula without
  // recursing in the parser, and overflowed the passes after it.
  constexpr std::size_t kDeep = 20000;
  std::string chain = "true" + Repeat(" & true", kDeep);
  std::string block = "exists";
  for (std::size_t i = 0; i < kDeep; ++i) {
    block += " x" + std::to_string(i);
  }
  block += ". true";
  for (const std::string& text :
       {Repeat("!", kDeep) + "true",
        Repeat("(", kDeep) + "true" + Repeat(")", kDeep), chain, block}) {
    Result<Formula> f = ParseFormula(text);
    ASSERT_FALSE(f.ok()) << text.substr(0, 40);
    EXPECT_EQ(f.status().code(), StatusCode::kParseError);
    EXPECT_NE(f.status().message().find(
                  "formula nests deeper than " +
                  std::to_string(kMaxFormulaNesting) + " levels at offset "),
              std::string::npos)
        << f.status().ToString();
  }
  // The text limit is crossed at the first '!' past twice the cap.
  EXPECT_NE(ParseFormula(Repeat("!", kDeep) + "true")
                .status()
                .message()
                .find("at offset " + std::to_string(2 * kMaxFormulaNesting)),
            std::string::npos);
}

TEST(ParserTest, NestingUpToTheCapParsesAndRoundTrips) {
  constexpr std::size_t kCap = kMaxFormulaNesting;
  std::string block = "exists";
  for (std::size_t i = 0; i + 1 < kCap; ++i) {
    block += " x" + std::to_string(i);
  }
  block += ". true";
  // Each has height exactly kCap; ToString parenthesizes every nested
  // negation and chain link, which the text limit of 2 * kCap absorbs.
  for (const std::string& text :
       {Repeat("!", kCap - 1) + "true", "true" + Repeat(" & true", kCap - 1),
        Repeat("true -> ", kCap - 1) + "true", block}) {
    Result<Formula> f = ParseFormula(text);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_EQ(f->height(), kCap);
    Result<Formula> again = ParseFormula(f->ToString());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, *f);
  }
  // One more level is over the cap.
  for (const std::string& text :
       {Repeat("!", kCap) + "true", "true" + Repeat(" & true", kCap),
        Repeat("true -> ", kCap) + "true"}) {
    EXPECT_EQ(ParseFormula(text).status().code(), StatusCode::kParseError);
  }
  // Parentheses add no height: the text may hold twice the cap of them.
  const std::string parens =
      Repeat("(", 2 * kCap) + "true" + Repeat(")", 2 * kCap);
  Result<Formula> f = ParseFormula(parens);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->height(), 1u);
  EXPECT_EQ(ParseFormula("(" + parens + ")").status().code(),
            StatusCode::kParseError);
}

TEST(CheckSignatureTest, AcceptsAndRejects) {
  Signature sig;
  sig.AddRelation("E", 2).AddConstant("c");
  Result<Formula> good = ParseFormula("exists x. E(x,c)", &sig);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(CheckAgainstSignature(*good, sig).ok());

  Result<Formula> unknown_rel = ParseFormula("F(x)");
  EXPECT_EQ(CheckAgainstSignature(*unknown_rel, sig).code(),
            StatusCode::kSignatureMismatch);

  Result<Formula> bad_arity = ParseFormula("E(x)");
  EXPECT_EQ(CheckAgainstSignature(*bad_arity, sig).code(),
            StatusCode::kSignatureMismatch);

  // A constant from a different signature.
  Formula stray = Formula::Equal(C("d"), V("x"));
  EXPECT_EQ(CheckAgainstSignature(stray, sig).code(),
            StatusCode::kSignatureMismatch);
}

TEST(SubstitutionTest, Basic) {
  Formula f = Formula::Atom("E", {V("x"), V("y")});
  Formula g = SubstituteVariable(f, "x", Term::Var("z"));
  EXPECT_EQ(g, Formula::Atom("E", {V("z"), V("y")}));
}

TEST(SubstitutionTest, ShadowedVariableUntouched) {
  Result<Formula> f = ParseFormula("P(x) & exists x. Q(x)");
  ASSERT_TRUE(f.ok());
  Formula g = SubstituteVariable(*f, "x", Term::Var("w"));
  Result<Formula> expected = ParseFormula("P(w) & exists x. Q(x)");
  EXPECT_EQ(g, *expected);
}

TEST(SubstitutionTest, CaptureAvoidance) {
  // Substituting y for x inside "exists y. E(x,y)" must rename bound y.
  Result<Formula> f = ParseFormula("exists y. E(x,y)");
  ASSERT_TRUE(f.ok());
  Formula g = SubstituteVariable(*f, "x", Term::Var("y"));
  EXPECT_EQ(g.kind(), FormulaKind::kExists);
  EXPECT_NE(g.variable(), "y");  // Renamed.
  EXPECT_EQ(FreeVariables(g), (std::set<std::string>{"y"}));
}

TEST(FreshVariableTest, AvoidsTaken) {
  EXPECT_EQ(FreshVariable("x", {}), "x");
  EXPECT_EQ(FreshVariable("x", {"x"}), "x1");
  EXPECT_EQ(FreshVariable("x", {"x", "x1"}), "x2");
}

TEST(RenameApartTest, MakesBindersDistinct) {
  Result<Formula> f =
      ParseFormula("(exists x. P(x)) & (exists x. Q(x)) & P(x)");
  ASSERT_TRUE(f.ok());
  Formula g = RenameBoundVariablesApart(*f);
  // Free x is preserved.
  EXPECT_EQ(FreeVariables(g), (std::set<std::string>{"x"}));
  // Three distinct variable names now appear.
  EXPECT_EQ(AllVariables(g).size(), 3u);
}

TEST(NnfTest, EliminatesImplicationAndPushesNegation) {
  Result<Formula> f = ParseFormula("!(forall x. P(x) -> Q(x))");
  ASSERT_TRUE(f.ok());
  Formula g = NegationNormalForm(*f);
  // NNF: exists x. P(x) & !Q(x).
  EXPECT_EQ(g.kind(), FormulaKind::kExists);
  EXPECT_EQ(g.body().kind(), FormulaKind::kAnd);
  EXPECT_EQ(g.body().child(1).kind(), FormulaKind::kNot);
  EXPECT_TRUE(g.body().child(1).child(0).is_atomic());
}

TEST(NnfTest, PreservesQuantifierRank) {
  Result<Formula> f =
      ParseFormula("!(exists x. forall y. E(x,y) <-> E(y,x))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(QuantifierRank(NegationNormalForm(*f)), QuantifierRank(*f));
}

TEST(SimplifyTest, ConstantFolding) {
  Result<Formula> f = ParseFormula("P(x) & true & (false | Q(x))");
  ASSERT_TRUE(f.ok());
  Formula g = Simplify(*f);
  EXPECT_EQ(g, Formula::And(Formula::Atom("P", {V("x")}),
                            Formula::Atom("Q", {V("x")})));
}

TEST(SimplifyTest, Annihilators) {
  Result<Formula> f = ParseFormula("P(x) & false");
  EXPECT_EQ(Simplify(*f).kind(), FormulaKind::kFalse);
  Result<Formula> g = ParseFormula("P(x) | true");
  EXPECT_EQ(Simplify(*g).kind(), FormulaKind::kTrue);
}

TEST(SimplifyTest, DoubleNegationAndTrivialEquality) {
  Result<Formula> f = ParseFormula("!!P(x)");
  EXPECT_EQ(Simplify(*f), Formula::Atom("P", {V("x")}));
  EXPECT_EQ(Simplify(Formula::Equal(V("x"), V("x"))).kind(),
            FormulaKind::kTrue);
}

TEST(SimplifyTest, QuantifiersNotFolded) {
  // ∃x.true must NOT fold to true (empty structures exist).
  Formula f = Formula::Exists("x", Formula::True());
  EXPECT_EQ(Simplify(f).kind(), FormulaKind::kExists);
}

TEST(PrenexTest, PullsQuantifiersOut) {
  Result<Formula> f =
      ParseFormula("(exists x. P(x)) & (forall y. Q(y))");
  ASSERT_TRUE(f.ok());
  Formula g = PrenexNormalForm(*f);
  EXPECT_EQ(g.kind(), FormulaKind::kExists);
  EXPECT_EQ(g.body().kind(), FormulaKind::kForall);
  EXPECT_EQ(g.body().body().kind(), FormulaKind::kAnd);
}

TEST(PrenexTest, HandlesVariableClashes) {
  Result<Formula> f = ParseFormula("(exists x. P(x)) & (exists x. Q(x))");
  ASSERT_TRUE(f.ok());
  Formula g = PrenexNormalForm(*f);
  EXPECT_EQ(g.kind(), FormulaKind::kExists);
  EXPECT_EQ(g.body().kind(), FormulaKind::kExists);
  EXPECT_NE(g.variable(), g.body().variable());
}

TEST(PrenexTest, NegationThroughQuantifier) {
  Result<Formula> f = ParseFormula("!(exists x. P(x))");
  ASSERT_TRUE(f.ok());
  Formula g = PrenexNormalForm(*f);
  EXPECT_EQ(g.kind(), FormulaKind::kForall);
  EXPECT_EQ(g.body().kind(), FormulaKind::kNot);
}

}  // namespace
}  // namespace fmtk
