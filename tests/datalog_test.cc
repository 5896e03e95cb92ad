#include <gtest/gtest.h>

#include <cstdint>

#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "queries/relation_query.h"
#include "structures/generators.h"
#include "structures/graph.h"

namespace fmtk {
namespace {

TEST(DatalogProgramTest, BuiltinsValidate) {
  EXPECT_TRUE(DatalogProgram::TransitiveClosure().Validate().ok());
  EXPECT_TRUE(DatalogProgram::SameGeneration().Validate().ok());
}

TEST(DatalogProgramTest, IdbEdbSplit) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  EXPECT_EQ(tc.IdbPredicates(), (std::set<std::string>{"tc"}));
  EXPECT_EQ(tc.EdbPredicates(), (std::set<std::string>{"E"}));
}

TEST(DatalogProgramTest, RangeRestrictionEnforced) {
  Result<DatalogProgram> bad =
      ParseDatalogProgram("p(x,y) :- E(x,x).", /*validate=*/false);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DatalogProgramTest, ArityConsistencyEnforced) {
  Result<DatalogProgram> bad = ParseDatalogProgram(
      "p(x) :- E(x,y). p(x,y) :- E(x,y).", /*validate=*/false);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->Validate().ok());
}

TEST(DatalogParserTest, ParsesTransitiveClosure) {
  Result<DatalogProgram> p = ParseDatalogProgram(
      "tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->rules().size(), 2u);
  EXPECT_EQ(p->rules()[1].body.size(), 2u);
  EXPECT_EQ(p->ToString(), DatalogProgram::TransitiveClosure().ToString());
}

TEST(DatalogParserTest, FactsAndConstants) {
  Result<DatalogProgram> p = ParseDatalogProgram(
      "start(0).  reach(x) :- start(x). reach(y) :- reach(x), E(x,y).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->rules().size(), 3u);
  EXPECT_FALSE(p->rules()[0].head.terms[0].is_variable);
  EXPECT_EQ(p->rules()[0].head.terms[0].value, 0u);
}

TEST(DatalogParserTest, FactSchemaWithEmptyBody) {
  Result<DatalogProgram> p = ParseDatalogProgram("sg(x,x) :- .");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(p->rules()[0].body.empty());
}

TEST(DatalogParserTest, Errors) {
  EXPECT_FALSE(ParseDatalogProgram("tc(x,y)").ok());     // Missing '.'.
  EXPECT_FALSE(ParseDatalogProgram("tc(x, :- .").ok());
  EXPECT_FALSE(ParseDatalogProgram("p(x) :- q(x. ").ok());
  // Range restriction via parser validation.
  EXPECT_FALSE(ParseDatalogProgram("p(x) :- q(y).").ok());
}

TEST(DatalogParserTest, ConstantsAreCheckedDecimals) {
  // These were read as E(0, x): std::stoul stops at the first non-digit and
  // the cast to Element dropped the high bits.
  for (const char* text : {"p(x) :- E(4294967296, x).",
                           "p(x) :- E(0abc, x).",
                           "p(x) :- E(99999999999999999999999, x)."}) {
    Result<DatalogProgram> p = ParseDatalogProgram(text);
    ASSERT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(p.status().message().find("at offset 10"), std::string::npos)
        << p.status().ToString();
  }
  Result<DatalogProgram> largest =
      ParseDatalogProgram("p(x) :- E(4294967295, x).");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->rules()[0].body[0].terms[0].value, 4294967295u);
}

TEST(DatalogEvalTest, TransitiveClosureMatchesGraphAlgorithm) {
  for (std::size_t n : {2, 5, 9}) {
    Structure chain = MakeDirectedPath(n);
    Result<std::map<std::string, Relation>> out =
        EvaluateDatalog(DatalogProgram::TransitiveClosure(), chain);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->at("tc") == TransitiveClosure(chain, 0));
  }
  Structure cycle = MakeDirectedCycle(6);
  Result<std::map<std::string, Relation>> out =
      EvaluateDatalog(DatalogProgram::TransitiveClosure(), cycle);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->at("tc") == TransitiveClosure(cycle, 0));
}

TEST(DatalogEvalTest, NaiveAndSemiNaiveAgree) {
  Structure tree = MakeFullBinaryTree(3);
  DatalogStats naive_stats;
  DatalogStats semi_stats;
  Result<std::map<std::string, Relation>> naive =
      EvaluateDatalog(DatalogProgram::SameGeneration(), tree,
                      DatalogStrategy::kNaive, &naive_stats);
  Result<std::map<std::string, Relation>> semi =
      EvaluateDatalog(DatalogProgram::SameGeneration(), tree,
                      DatalogStrategy::kSemiNaive, &semi_stats);
  ASSERT_TRUE(naive.ok() && semi.ok());
  EXPECT_TRUE(naive->at("sg") == semi->at("sg"));
  // Semi-naive derives strictly fewer duplicate tuples.
  EXPECT_LT(semi_stats.tuples_derived, naive_stats.tuples_derived);
}

TEST(DatalogEvalTest, SameGenerationMatchesQueryLibrary) {
  Structure tree = MakeFullBinaryTree(3);
  Result<std::map<std::string, Relation>> dl =
      EvaluateDatalog(DatalogProgram::SameGeneration(), tree);
  Result<Relation> direct = RelationQuery::SameGeneration().Evaluate(tree);
  ASSERT_TRUE(dl.ok() && direct.ok());
  EXPECT_TRUE(dl->at("sg") == *direct);
}

TEST(DatalogEvalTest, SameGenerationOnTreeIsLevelEquality) {
  Structure tree = MakeFullBinaryTree(2);  // 7 nodes, levels {0},{1,2},{3..6}
  Result<Relation> sg = RelationQuery::SameGeneration().Evaluate(tree);
  ASSERT_TRUE(sg.ok());
  EXPECT_TRUE(sg->Contains({1, 2}));
  EXPECT_TRUE(sg->Contains({3, 6}));
  EXPECT_FALSE(sg->Contains({0, 1}));
  EXPECT_FALSE(sg->Contains({2, 3}));
  EXPECT_EQ(sg->size(), 1u + 4u + 16u);
}

TEST(DatalogEvalTest, UnknownEdbPredicateIsError) {
  Result<DatalogProgram> p = ParseDatalogProgram("p(x) :- R(x,y).");
  ASSERT_TRUE(p.ok());
  Structure chain = MakeDirectedPath(3);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*p, chain);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kSignatureMismatch);
}

TEST(DatalogEvalTest, IdbEdbNameCollisionIsError) {
  Result<DatalogProgram> p = ParseDatalogProgram("E(x,y) :- E(y,x).");
  ASSERT_TRUE(p.ok());
  Structure chain = MakeDirectedPath(3);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*p, chain);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatalogEvalTest, ConstantOutsideDomainIsError) {
  Result<DatalogProgram> p =
      ParseDatalogProgram("p(9). q(x) :- p(x), E(x,x).");
  ASSERT_TRUE(p.ok());
  Structure chain = MakeDirectedPath(3);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*p, chain);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatalogEvalTest, EmptyDomain) {
  Structure empty = MakeEmptyGraph(0);
  Result<std::map<std::string, Relation>> out =
      EvaluateDatalog(DatalogProgram::SameGeneration(), empty);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at("sg").size(), 0u);
}

TEST(DatalogEvalTest, ReachabilityWithConstant) {
  Result<DatalogProgram> p = ParseDatalogProgram(
      "reach(0). reach(y) :- reach(x), E(x,y).");
  ASSERT_TRUE(p.ok());
  Structure chain = MakeDirectedPath(5);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*p, chain);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->at("reach").size(), 5u);
  Structure two = MakeDisjointCycles(2, 3);
  out = EvaluateDatalog(*p, two);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at("reach").size(), 3u);  // Only the first cycle.
}

TEST(DatalogEvalTest, StatsTrackIterations) {
  Structure chain = MakeDirectedPath(8);
  DatalogStats stats;
  ASSERT_TRUE(EvaluateDatalog(DatalogProgram::TransitiveClosure(), chain,
                              DatalogStrategy::kSemiNaive, &stats)
                  .ok());
  // A chain of 8 nodes needs ~7 rounds to close paths of length 7.
  EXPECT_GE(stats.iterations, 7u);
  EXPECT_GT(stats.tuples_new, 0u);
}

TEST(DatalogEvalTest, NaiveAndCompiledStrategiesAgree) {
  for (const DatalogProgram& program :
       {DatalogProgram::TransitiveClosure(), DatalogProgram::SameGeneration(),
        DatalogProgram::NonlinearTransitiveClosure()}) {
    for (const Structure& s :
         {MakeFullBinaryTree(3), MakeDirectedCycle(5), MakeDirectedPath(7)}) {
      Result<std::map<std::string, Relation>> naive =
          EvaluateDatalog(program, s, DatalogStrategy::kNaive);
      Result<std::map<std::string, Relation>> compiled =
          EvaluateDatalog(program, s, DatalogStrategy::kSemiNaive);
      ASSERT_TRUE(naive.ok() && compiled.ok());
      EXPECT_TRUE(*naive == *compiled);
    }
  }
}

TEST(DatalogEvalTest, StandardDeltaDecompositionDerivesLess) {
  // Nonlinear TC has two recursive body atoms: a per-position scheme joins
  // the delta against the FULL relation at the other position, re-deriving
  // tuples; the standard decomposition (full-new before the delta,
  // pre-round snapshots after) does not. The seed's per-position
  // interpreter derived 3105 tuples here (nltc_chain_seed_semi, n = 24, in
  // BENCH_pr10.json); the compiled engine's counters are pinned.
  Structure chain = MakeDirectedPath(24);
  DatalogStats compiled;
  Result<std::map<std::string, Relation>> a = EvaluateDatalog(
      DatalogProgram::NonlinearTransitiveClosure(), chain,
      DatalogStrategy::kNaive);
  Result<std::map<std::string, Relation>> b =
      EvaluateDatalog(DatalogProgram::NonlinearTransitiveClosure(), chain,
                      DatalogStrategy::kSemiNaive, &compiled);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->at("tc") == b->at("tc"));
  EXPECT_EQ(compiled.tuples_derived, 2047u);
  EXPECT_EQ(compiled.tuples_new, 276u);  // = |tc| = 24 * 23 / 2.
}

TEST(DatalogEvalTest, NaiveIterationRederivesEveryRound) {
  // TC on an n-chain: naive iteration re-derives the whole relation every
  // round, while the compiled semi-naive engine derives each of the
  // n(n-1)/2 tuples once and scans two candidates per derivation.
  struct Expected {
    std::uint64_t n, naive_derived, naive_scanned;
  };
  for (const Expected& want : {Expected{8, 161, 1169},
                               Expected{16, 1345, 20065},
                               Expected{32, 10881, 334273}}) {
    Structure chain = MakeDirectedPath(want.n);
    DatalogStats naive, compiled;
    ASSERT_TRUE(EvaluateDatalog(DatalogProgram::TransitiveClosure(), chain,
                                DatalogStrategy::kNaive, &naive)
                    .ok());
    ASSERT_TRUE(EvaluateDatalog(DatalogProgram::TransitiveClosure(), chain,
                                DatalogStrategy::kSemiNaive, &compiled)
                    .ok());
    EXPECT_EQ(naive.tuples_derived, want.naive_derived) << "n=" << want.n;
    EXPECT_EQ(naive.tuples_scanned, want.naive_scanned) << "n=" << want.n;
    EXPECT_EQ(compiled.tuples_scanned, want.n * (want.n - 1))
        << "n=" << want.n;
  }
}

TEST(DatalogEvalTest, SameGenerationRoundsGrowWithDepth) {
  // SG on the full binary tree of depth d closes in d + 1 rounds (one rule
  // firing each): the iteration depth follows the data.
  struct Expected {
    std::size_t depth;
    std::uint64_t atom_visits, tuples_scanned;
  };
  for (const Expected& want :
       {Expected{2, 34, 51}, Expected{3, 131, 211}, Expected{4, 516, 851},
        Expected{5, 2053, 3411}}) {
    DatalogStats stats;
    ASSERT_TRUE(EvaluateDatalog(DatalogProgram::SameGeneration(),
                                MakeFullBinaryTree(want.depth),
                                DatalogStrategy::kSemiNaive, &stats)
                    .ok());
    EXPECT_EQ(stats.iterations, want.depth + 1) << "depth " << want.depth;
    EXPECT_EQ(stats.rule_applications, want.depth + 1)
        << "depth " << want.depth;
    EXPECT_EQ(stats.atom_visits, want.atom_visits) << "depth " << want.depth;
    EXPECT_EQ(stats.tuples_scanned, want.tuples_scanned)
        << "depth " << want.depth;
  }
}

TEST(DatalogEvalTest, PureEdbRuleFiresOnlyInRoundOne) {
  // A non-recursive pure-EDB rule derives everything in round 1; round 2
  // only confirms the fixpoint. The semi-naive engine must derive each
  // edge exactly once (the seed used to re-fire the rule every round).
  Result<DatalogProgram> p = ParseDatalogProgram("e2(x,y) :- E(x,y).");
  ASSERT_TRUE(p.ok());
  Structure chain = MakeDirectedPath(10);
  const std::uint64_t edges = chain.relation(0).size();
  DatalogStats stats;
  Result<std::map<std::string, Relation>> out =
      EvaluateDatalog(*p, chain, DatalogStrategy::kSemiNaive, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at("e2").size(), edges);
  EXPECT_EQ(stats.tuples_derived, edges);
}

TEST(DatalogEvalTest, RuleApplicationsCountFirings) {
  // rule_applications counts rule-body executions (one per delta variant
  // per round), not body-atom visits — those are atom_visits. TC has a
  // pure-EDB rule (1 firing, round 1 only) and a 1-IDB-atom rule (1 firing
  // per round).
  Structure chain = MakeDirectedPath(8);
  DatalogStats stats;
  ASSERT_TRUE(EvaluateDatalog(DatalogProgram::TransitiveClosure(), chain,
                              DatalogStrategy::kSemiNaive, &stats)
                  .ok());
  EXPECT_EQ(stats.rule_applications, stats.iterations + 1);
  EXPECT_GT(stats.atom_visits, stats.rule_applications);
}

TEST(DatalogEvalTest, CompiledEngineUsesIndexes) {
  Structure tree = MakeFullBinaryTree(5);
  DatalogStats compiled;
  ASSERT_TRUE(EvaluateDatalog(DatalogProgram::SameGeneration(), tree,
                              DatalogStrategy::kSemiNaive, &compiled)
                  .ok());
  // Posting-list probes replace full scans: orders of magnitude fewer
  // candidate tuples examined than the seed's scanning interpreter, which
  // examined 5,270,496 here (sg_tree_seed_semi, n = 63, in BENCH_pr10.json).
  EXPECT_EQ(compiled.index_probes, 2047u);
  EXPECT_EQ(compiled.tuples_scanned, 3411u);
  ASSERT_FALSE(compiled.join_orders.empty());
  bool has_delta = false;
  bool has_probe = false;
  for (const std::string& line : compiled.join_orders) {
    has_delta = has_delta || line.find(":delta") != std::string::npos;
    has_probe = has_probe || line.find(":probe(") != std::string::npos;
  }
  EXPECT_TRUE(has_delta);
  EXPECT_TRUE(has_probe);
}

TEST(DatalogParserTest, NegationMarkers) {
  Result<DatalogProgram> bang = ParseDatalogProgram(
      "r(x) :- E(x,y). u(x) :- E(x,x), !r(x).", /*validate=*/false);
  ASSERT_TRUE(bang.ok()) << bang.status().ToString();
  EXPECT_TRUE(bang->rules()[1].body[1].negated);
  EXPECT_FALSE(bang->rules()[1].body[0].negated);
  Result<DatalogProgram> word = ParseDatalogProgram(
      "r(x) :- E(x,y). u(x) :- E(x,x), not r(x).", /*validate=*/false);
  ASSERT_TRUE(word.ok()) << word.status().ToString();
  EXPECT_TRUE(word->rules()[1].body[1].negated);
  // `not` only negates when followed by an atom: a predicate named
  // "notable" parses as a positive atom.
  Result<DatalogProgram> ident =
      ParseDatalogProgram("u(x) :- notable(x).", /*validate=*/false);
  ASSERT_TRUE(ident.ok()) << ident.status().ToString();
  EXPECT_FALSE(ident->rules()[0].body[0].negated);
  EXPECT_EQ(ident->rules()[0].body[0].predicate, "notable");
  // Negated heads have no stratified meaning.
  EXPECT_FALSE(ParseDatalogProgram("!p(x) :- E(x,x).").ok());
}

TEST(DatalogEvalTest, StratifiedComplementOfReachability) {
  // unreach = nodes not reachable from 2 — negation one stratum above
  // reach. On the path 0->1->2->3->4, reach(2) closes to {2,3,4}.
  const char* text =
      "node(x) :- . "
      "reach(2). "
      "reach(y) :- reach(x), E(x,y). "
      "unreach(x) :- node(x), !reach(x).";
  Result<DatalogProgram> program = ParseDatalogProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Structure path = MakeDirectedPath(5);
  for (DatalogStrategy strategy :
       {DatalogStrategy::kNaive, DatalogStrategy::kSemiNaive}) {
    DatalogStats stats;
    Result<std::map<std::string, Relation>> out =
        EvaluateDatalog(*program, path, strategy, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Relation expected(1);
    expected.Add({0});
    expected.Add({1});
    EXPECT_TRUE(out->at("unreach") == expected);
    EXPECT_EQ(out->at("reach").size(), 3u);
    ASSERT_EQ(stats.strata.size(), 2u);
    EXPECT_NE(stats.strata[0].find("reach"), std::string::npos);
    EXPECT_NE(stats.strata[1].find("unreach"), std::string::npos);
  }
}

TEST(DatalogEvalTest, StratifiedComplementOfTransitiveClosure) {
  // nontc = node x node minus tc: the negated atom reads the completed
  // closure of the stratum below on every engine.
  const char* text =
      "node(x) :- . "
      "tc(x,y) :- E(x,y). "
      "tc(x,y) :- E(x,z), tc(z,y). "
      "nontc(x,y) :- node(x), node(y), !tc(x,y).";
  Result<DatalogProgram> program = ParseDatalogProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (std::size_t n : {3, 6}) {
    Structure cycle = MakeDirectedCycle(n);
    Result<std::map<std::string, Relation>> naive =
        EvaluateDatalog(*program, cycle, DatalogStrategy::kNaive);
    Result<std::map<std::string, Relation>> compiled =
        EvaluateDatalog(*program, cycle, DatalogStrategy::kSemiNaive);
    ASSERT_TRUE(naive.ok() && compiled.ok());
    // On a directed cycle the closure is total: nontc is empty.
    EXPECT_EQ(compiled->at("tc").size(), n * n);
    EXPECT_EQ(compiled->at("nontc").size(), 0u);
    EXPECT_TRUE(naive->at("nontc") == compiled->at("nontc"));
    EXPECT_TRUE(naive->at("tc") == compiled->at("tc"));
  }
  Structure path = MakeDirectedPath(4);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*program, path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->at("tc").size(), 6u);        // Pairs i < j.
  EXPECT_EQ(out->at("nontc").size(), 10u);    // 16 - 6.
  EXPECT_TRUE(out->at("nontc").Contains({0, 0}));
  EXPECT_TRUE(out->at("nontc").Contains({3, 0}));
  EXPECT_FALSE(out->at("nontc").Contains({0, 3}));
}

TEST(DatalogEvalTest, UnstratifiableProgramIsRejected) {
  // win(x) :- E(x,y), !win(y): negation through recursion (FMTK110), from
  // the parser's validation gate and every engine front door.
  Result<DatalogProgram> gated =
      ParseDatalogProgram("win(x) :- E(x,y), !win(y).");
  EXPECT_FALSE(gated.ok());
  Result<DatalogProgram> program = ParseDatalogProgram(
      "win(x) :- E(x,y), !win(y).", /*validate=*/false);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Structure path = MakeDirectedPath(3);
  for (DatalogStrategy strategy :
       {DatalogStrategy::kNaive, DatalogStrategy::kSemiNaive}) {
    Result<std::map<std::string, Relation>> out =
        EvaluateDatalog(*program, path, strategy);
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DatalogEvalTest, UnsafeNegatedVariableIsRejected) {
  // z occurs only under negation (FMTK111): no positive atom binds it.
  Result<DatalogProgram> program = ParseDatalogProgram(
      "p(x) :- E(x,x), !E(x,z).", /*validate=*/false);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Structure path = MakeDirectedPath(3);
  Result<std::map<std::string, Relation>> out = EvaluateDatalog(*program, path);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatalogEvalTest, NegatedEdbAtomWithinStratumZero) {
  // Negation over an EDB atom adds no stratum: the complement graph's
  // closure, computed in a single stratum with a recursive positive rule.
  const char* text =
      "node(x) :- . "
      "co(x,y) :- node(x), node(y), !E(x,y). "
      "cotc(x,y) :- co(x,y). "
      "cotc(x,y) :- co(x,z), cotc(z,y).";
  Result<DatalogProgram> program = ParseDatalogProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Structure path = MakeDirectedPath(3);  // E = {(0,1),(1,2)}.
  DatalogStats stats;
  Result<std::map<std::string, Relation>> out =
      EvaluateDatalog(*program, path, DatalogStrategy::kSemiNaive, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->at("co").size(), 7u);  // 9 pairs minus the 2 edges.
  // The complement contains (0,0): the closure is total.
  EXPECT_EQ(out->at("cotc").size(), 9u);
  EXPECT_EQ(stats.strata.size(), 1u);
  Result<std::map<std::string, Relation>> naive =
      EvaluateDatalog(*program, path, DatalogStrategy::kNaive);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(naive->at("cotc") == out->at("cotc"));
}

TEST(DatalogEvalTest, ThreeStrataChainSeedsDriveLaterStrata) {
  // Alternating strata: reach (0) -> unreach (1) -> s (2, recursive). The
  // fact s(0) sits in the store long before stratum 2 starts; its rules
  // only fire once the per-stratum schedule rewinds s's delta to cover the
  // seed. On two disjoint 3-cycles, s retraces the first cycle.
  const char* text =
      "node(x) :- . "
      "reach(0). "
      "reach(y) :- reach(x), E(x,y). "
      "unreach(x) :- node(x), !reach(x). "
      "s(0). "
      "s(y) :- s(x), E(x,y), !unreach(y).";
  Result<DatalogProgram> program = ParseDatalogProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Structure two = MakeDisjointCycles(2, 3);
  DatalogStats stats;
  Result<std::map<std::string, Relation>> compiled =
      EvaluateDatalog(*program, two, DatalogStrategy::kSemiNaive, &stats);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Result<std::map<std::string, Relation>> naive =
      EvaluateDatalog(*program, two, DatalogStrategy::kNaive);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(stats.strata.size(), 3u);
  EXPECT_EQ(compiled->at("unreach").size(), 3u);  // The second cycle.
  EXPECT_EQ(compiled->at("s").size(), 3u);        // The first, from s(0).
  EXPECT_TRUE(naive->at("s") == compiled->at("s"));
}

TEST(DatalogEvalTest, RepeatedVariablesAndBodyConstants) {
  // Repeated variables become equality pre-checks and constants become
  // probe keys in the compiled engine; pin both against the naive oracle.
  Result<DatalogProgram> p = ParseDatalogProgram(
      "loop(x) :- E(x,x). from0(y) :- E(0,y). "
      "chain2(x,y) :- E(x,z), E(z,y), loop(x).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  Structure g = MakeDisjointCycles(2, 3);  // Two 3-cycles, no self loops.
  Structure loops = MakeDisjointCycles(3, 1);  // Self loops only.
  for (const Structure* s : {&g, &loops}) {
    Result<std::map<std::string, Relation>> naive =
        EvaluateDatalog(*p, *s, DatalogStrategy::kNaive);
    Result<std::map<std::string, Relation>> compiled =
        EvaluateDatalog(*p, *s, DatalogStrategy::kSemiNaive);
    ASSERT_TRUE(naive.ok() && compiled.ok());
    EXPECT_TRUE(*naive == *compiled);
  }
}

}  // namespace
}  // namespace fmtk
