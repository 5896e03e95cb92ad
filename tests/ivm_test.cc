#include "datalog/ivm.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "datalog/compiled_engine.h"
#include "datalog/program.h"
#include "structures/generators.h"
#include "structures/structure.h"

namespace fmtk {
namespace {

// The differential oracle: from-scratch evaluation of `program` on the
// session's current EDB must equal the incrementally maintained IDB.
void ExpectMatchesScratch(const DatalogProgram& program,
                          const IncrementalDatalogSession& session,
                          const std::string& context) {
  Result<CompiledDatalogEngine> engine =
      CompiledDatalogEngine::Create(program, session.edb());
  ASSERT_TRUE(engine.ok()) << context << ": " << engine.status().ToString();
  Result<std::map<std::string, Relation>> expected = engine->Evaluate();
  ASSERT_TRUE(expected.ok()) << context << ": "
                             << expected.status().ToString();
  const std::map<std::string, const Relation*> got = session.Materialized();
  ASSERT_EQ(got.size(), expected->size()) << context;
  for (const auto& [name, rel] : *expected) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << context << ": missing " << name;
    EXPECT_TRUE(*it->second == rel)
        << context << ": " << name << " diverged (incremental "
        << it->second->size() << " tuples, scratch " << rel.size() << ")";
  }
}

std::vector<Tuple> RandomEdges(std::size_t count, std::size_t n,
                               std::mt19937_64& rng) {
  std::vector<Tuple> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({static_cast<Element>(rng() % n),
                   static_cast<Element>(rng() % n)});
  }
  return out;
}

// Drives a fixed-seed mixed insert/delete workload and differential-tests
// the session against from-scratch evaluation after every batch.
void RunMixedWorkload(const DatalogProgram& program, std::size_t n,
                      double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Structure g = MakeRandomGraph(n, density, rng);
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectMatchesScratch(program, *session, "initial");
  for (int batch = 0; batch < 6; ++batch) {
    const std::vector<Tuple> edges = RandomEdges(8, n, rng);
    const std::string tag = "batch " + std::to_string(batch);
    if (batch % 2 == 0) {
      ASSERT_TRUE(session->ApplyInsert("E", edges).ok()) << tag;
      ExpectMatchesScratch(program, *session, tag + " insert");
    } else {
      ASSERT_TRUE(session->ApplyDelete("E", edges).ok()) << tag;
      ExpectMatchesScratch(program, *session, tag + " delete");
    }
  }
}

TEST(IvmTest, TransitiveClosureMixedWorkload) {
  RunMixedWorkload(DatalogProgram::TransitiveClosure(), 25, 0.06, 101);
}

TEST(IvmTest, SameGenerationMixedWorkload) {
  // sg has a fact schema (the diagonal): deletes must never remove it.
  RunMixedWorkload(DatalogProgram::SameGeneration(), 18, 0.06, 202);
}

TEST(IvmTest, NonlinearTransitiveClosureMixedWorkload) {
  // Two recursive body atoms: the delta-at-every-position scheme and the
  // deletion check both get exercised through multi-IDB-atom rules.
  RunMixedWorkload(DatalogProgram::NonlinearTransitiveClosure(), 20, 0.06,
                   303);
}

TEST(IvmTest, ConstantsInRules) {
  // Reachability from source 0: constants appear in EDB atom positions,
  // which become probe columns of delta and rederive plans.
  Result<DatalogProgram> program = ParseDatalogProgram(
      "r(y) :- E(0, y). r(y) :- r(x), E(x, y).");
  ASSERT_TRUE(program.ok());
  RunMixedWorkload(*program, 15, 0.08, 404);
}

TEST(IvmTest, PureEdbRule) {
  Result<DatalogProgram> program =
      ParseDatalogProgram("p(x, y) :- E(x, y), E(y, x).");
  ASSERT_TRUE(program.ok());
  RunMixedWorkload(*program, 12, 0.2, 505);
}

TEST(IvmTest, FactTuplesSurviveDeletion) {
  const DatalogProgram program = DatalogProgram::SameGeneration();
  Structure g = MakeDirectedPath(4);  // Edges 0->1->2->3.
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Deleting every edge must leave exactly the fact-schema diagonal.
  ASSERT_TRUE(
      session->ApplyDelete("E", {{0, 1}, {1, 2}, {2, 3}}).ok());
  const Relation* sg = session->Materialized().at("sg");
  EXPECT_EQ(sg->size(), 4u);
  for (Element i = 0; i < 4; ++i) {
    EXPECT_TRUE(sg->Contains({i, i}));
  }
  ExpectMatchesScratch(program, *session, "all edges deleted");
}

TEST(IvmTest, InsertRestoresDeleted) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedCycle(6);
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->Materialized().at("tc")->size(), 36u);
  ASSERT_TRUE(session->ApplyDelete("E", {{2, 3}}).ok());
  ExpectMatchesScratch(program, *session, "cycle cut");
  EXPECT_GT(session->last_stats().idb_deleted, 0u);
  ASSERT_TRUE(session->ApplyInsert("E", {{2, 3}}).ok());
  EXPECT_EQ(session->Materialized().at("tc")->size(), 36u);
  ExpectMatchesScratch(program, *session, "cycle restored");
}

TEST(IvmTest, CascadingRederivation) {
  // Diamond 0->{1,2}->3 plus chain 3->4: deleting 0->1 must keep every
  // closure tuple alive through the 0->2->3 path (rederivation), while
  // deleting both 0->1 and 0->2 must cascade the loss to (0,3) and (0,4).
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  auto make = [] {
    Structure g = MakeEmptyGraph(5);
    g.AddTuple(0, {0, 1});
    g.AddTuple(0, {0, 2});
    g.AddTuple(0, {1, 3});
    g.AddTuple(0, {2, 3});
    g.AddTuple(0, {3, 4});
    return g;
  };
  {
    Result<IncrementalDatalogSession> session =
        IncrementalDatalogSession::Create(program, make());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->ApplyDelete("E", {{0, 1}}).ok());
    const Relation* tc = session->Materialized().at("tc");
    EXPECT_TRUE(tc->Contains({0, 3}));
    EXPECT_TRUE(tc->Contains({0, 4}));
    EXPECT_FALSE(tc->Contains({0, 1}));
    EXPECT_GT(session->last_stats().rederived, 0u);
    ExpectMatchesScratch(program, *session, "one diamond arm");
  }
  {
    Result<IncrementalDatalogSession> session =
        IncrementalDatalogSession::Create(program, make());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->ApplyDelete("E", {{0, 1}, {0, 2}}).ok());
    const Relation* tc = session->Materialized().at("tc");
    EXPECT_FALSE(tc->Contains({0, 3}));
    EXPECT_FALSE(tc->Contains({0, 4}));
    EXPECT_TRUE(tc->Contains({1, 4}));
    ExpectMatchesScratch(program, *session, "both diamond arms");
  }
}

TEST(IvmTest, NoOpBatches) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedPath(4);
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  const std::size_t before = session->Materialized().at("tc")->size();
  // Inserting present tuples and deleting absent ones are cheap no-ops.
  ASSERT_TRUE(session->ApplyInsert("E", {{0, 1}}).ok());
  EXPECT_EQ(session->last_stats().edb_changed, 0u);
  ASSERT_TRUE(session->ApplyDelete("E", {{3, 0}}).ok());
  EXPECT_EQ(session->last_stats().edb_changed, 0u);
  EXPECT_EQ(session->Materialized().at("tc")->size(), before);
}

TEST(IvmTest, ErrorPaths) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedPath(3);
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->ApplyInsert("nope", {{0, 1}}).ok());
  EXPECT_FALSE(session->ApplyInsert("E", {{0}}).ok());         // Arity.
  EXPECT_FALSE(session->ApplyInsert("E", {{0, 99}}).ok());     // Range.
  EXPECT_FALSE(session->ApplyDelete("nope", {{0, 1}}).ok());
  EXPECT_FALSE(session->ApplyDelete("E", {{0, 1, 2}}).ok());   // Arity.
  // The failed calls left the session consistent.
  ExpectMatchesScratch(program, *session, "after rejected batches");
}

// Elements at or past domain_size() are rejected by both write calls with
// InvalidArgument, before any side effect — even when the rest of the batch
// is valid and the out-of-domain tuple comes last.
TEST(IvmTest, OutOfDomainElementsRejectedWithoutSideEffects) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedPath(4);
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  const std::size_t edges = session->edb().relation(0).size();
  const std::size_t closure = session->Materialized().at("tc")->size();
  for (const Element bad : {Element{4}, Element{1} << 31}) {
    const Status insert = session->ApplyInsert("E", {{3, 0}, {0, bad}});
    EXPECT_EQ(insert.code(), StatusCode::kInvalidArgument) << bad;
    const Status remove = session->ApplyDelete("E", {{0, 1}, {bad, 1}});
    EXPECT_EQ(remove.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(session->edb().relation(0).size(), edges);
    EXPECT_EQ(session->Materialized().at("tc")->size(), closure);
    EXPECT_TRUE(session->edb().relation(0).Contains({0, 1}));
    EXPECT_FALSE(session->edb().relation(0).Contains({3, 0}));
  }
  ExpectMatchesScratch(program, *session, "after out-of-domain batches");
}

TEST(IvmTest, StatsReflectWork) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedPath(5);  // tc = 10 tuples.
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ApplyInsert("E", {{4, 0}}).ok());  // Close the cycle.
  const IvmStats& stats = session->last_stats();
  EXPECT_EQ(stats.edb_changed, 1u);
  EXPECT_EQ(stats.idb_inserted, 15u);  // 10 -> 25 (full cycle closure).
  EXPECT_GT(stats.rounds, 1u);
  ExpectMatchesScratch(program, *session, "cycle closed");
}

// A rule-head constant outside the domain is rejected when the session is
// created: the domain never changes, so no later write could derive it.
// (Previously the first write that fired the rule failed after appending
// its batch, and a retry of the same insert then succeeded as a no-op.)
TEST(IvmTest, OutOfDomainHeadConstantRejectedAtCreate) {
  Result<DatalogProgram> program = ParseDatalogProgram("p(7) :- E(x, y).");
  ASSERT_TRUE(program.ok());
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(*program, MakeEmptyGraph(5));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  // The largest in-domain constant is fine.
  Result<DatalogProgram> in_domain = ParseDatalogProgram("p(4) :- E(x, y).");
  ASSERT_TRUE(in_domain.ok());
  session = IncrementalDatalogSession::Create(*in_domain, MakeEmptyGraph(5));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->ApplyInsert("E", {{0, 1}}).ok());
  EXPECT_TRUE(session->Materialized().at("p")->Contains({4}));
  ASSERT_TRUE(session->ApplyDelete("E", {{0, 1}}).ok());
  EXPECT_TRUE(session->Materialized().at("p")->empty());
}

// Deleting a shortcut removes no closure pair. The forward pass reaches
// only the pairs the shortcut derives directly, tc(8, 12..16); the
// backward check proves each through the chain, so none spreads. (DRed
// overdeleted all 45 pairs tc(0..8, 12..16) here and rederived them.)
TEST(IvmTest, ShortcutDeleteReachesOnlyItsOwnConsequences) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeDirectedPath(17);
  g.AddTuple(0, {8, 12});
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  const std::size_t closure = session->Materialized().at("tc")->size();
  ASSERT_TRUE(session->ApplyDelete("E", {{8, 12}}).ok());
  const IvmStats& stats = session->last_stats();
  EXPECT_EQ(stats.edb_changed, 1u);
  EXPECT_EQ(stats.overestimate, 5u);
  EXPECT_EQ(stats.rederived, 5u);
  EXPECT_EQ(stats.idb_deleted, 0u);
  EXPECT_EQ(stats.rounds, 1u);
  // tc(8, y) proves through tc(9, y), ..., tc(y - 1, y) for y = 12..16.
  EXPECT_EQ(stats.checked, 4u + 5 + 6 + 7 + 8);
  EXPECT_EQ(session->Materialized().at("tc")->size(), closure);
  ExpectMatchesScratch(program, *session, "shortcut deleted");
}

// A self-loop keeps tc(0, 0), but tc(0, 1) must not prove itself through
// the instance E(0, 0), tc(0, 1).
TEST(IvmTest, SelfLoopDoesNotSupportItsOwnPair) {
  const DatalogProgram program = DatalogProgram::TransitiveClosure();
  Structure g = MakeEmptyGraph(2);
  g.AddTuple(0, {0, 0});
  g.AddTuple(0, {0, 1});
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ApplyDelete("E", {{0, 1}}).ok());
  const Relation* tc = session->Materialized().at("tc");
  EXPECT_EQ(tc->size(), 1u);
  EXPECT_TRUE(tc->Contains({0, 0}));
  EXPECT_EQ(session->last_stats().idb_deleted, 1u);
  EXPECT_EQ(session->last_stats().rederived, 0u);
  ExpectMatchesScratch(program, *session, "self-loop");
}

// Nonlinear TC on the 2-cycle 1 <-> 2 entered from 0: once 0 -> 1 goes,
// tc(0, 1) and tc(0, 2) hold each other up (tc(0,1) :- tc(0,2), tc(2,1)
// and tc(0,2) :- tc(0,1), tc(1,2)) and nothing else does; both must go.
TEST(IvmTest, NonlinearCycleDoesNotSupportItself) {
  const DatalogProgram program = DatalogProgram::NonlinearTransitiveClosure();
  Structure g = MakeEmptyGraph(3);
  g.AddTuple(0, {1, 2});
  g.AddTuple(0, {2, 1});
  g.AddTuple(0, {0, 1});
  Result<IncrementalDatalogSession> session =
      IncrementalDatalogSession::Create(program, g);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ApplyDelete("E", {{0, 1}}).ok());
  const Relation* tc = session->Materialized().at("tc");
  EXPECT_FALSE(tc->Contains({0, 1}));
  EXPECT_FALSE(tc->Contains({0, 2}));
  EXPECT_EQ(tc->size(), 4u);
  EXPECT_EQ(session->last_stats().idb_deleted, 2u);
  ExpectMatchesScratch(program, *session, "nonlinear 2-cycle");
}

}  // namespace
}  // namespace fmtk
