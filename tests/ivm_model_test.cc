// Model-based test of IncrementalDatalogSession: fixed-seed random insert
// and delete batches on small universes, run against a std::set<Tuple>
// model of the EDB. After every batch the session's EDB must equal the
// model and every maintained IDB relation must equal from-scratch
// evaluation of the program on it. Batches mix cycles, self-loops,
// duplicate tuples and deletes of absent tuples; a second test replays
// chain extensions and in-chain shortcuts, the shape whose deletes remove
// nothing.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/compiled_engine.h"
#include "datalog/ivm.h"
#include "datalog/program.h"
#include "structures/generators.h"
#include "structures/structure.h"

namespace fmtk {
namespace {

using Model = std::set<Tuple>;

constexpr Element kUniverse = 12;

struct NamedProgram {
  std::string name;
  DatalogProgram program;
};

std::vector<NamedProgram> Programs() {
  std::vector<NamedProgram> out = {
      {"tc", DatalogProgram::TransitiveClosure()},
      {"nonlinear_tc", DatalogProgram::NonlinearTransitiveClosure()},
      {"sg", DatalogProgram::SameGeneration()},
  };
  Result<DatalogProgram> reach =
      ParseDatalogProgram("r(y) :- E(0, y). r(y) :- r(x), E(x, y).");
  EXPECT_TRUE(reach.ok());
  out.push_back({"reach_from_0", *reach});
  // A constant inside an IDB body atom: its delta step probes the side
  // store of disproved tc facts by column.
  Result<DatalogProgram> from3 = ParseDatalogProgram(
      "tc(x, y) :- E(x, y). tc(x, y) :- E(x, z), tc(z, y). "
      "from3(y) :- tc(3, y).");
  EXPECT_TRUE(from3.ok());
  out.push_back({"tc_from_3", *from3});
  return out;
}

// Checks the session against the EDB model and against from-scratch
// evaluation, and the delete counters against each other.
void ExpectMatchesModel(const DatalogProgram& program,
                        const IncrementalDatalogSession& session,
                        const Model& model, const std::string& context) {
  const Relation& edges = session.edb().relation(0);
  ASSERT_EQ(edges.size(), model.size()) << context;
  for (const Tuple& t : model) {
    ASSERT_TRUE(edges.Contains(t)) << context;
  }
  Result<CompiledDatalogEngine> engine =
      CompiledDatalogEngine::Create(program, session.edb());
  ASSERT_TRUE(engine.ok()) << context << ": " << engine.status().ToString();
  Result<std::map<std::string, Relation>> expected = engine->Evaluate();
  ASSERT_TRUE(expected.ok()) << context;
  const std::map<std::string, const Relation*> got = session.Materialized();
  ASSERT_EQ(got.size(), expected->size()) << context;
  for (const auto& [name, rel] : *expected) {
    ASSERT_TRUE(got.count(name) == 1) << context << ": missing " << name;
    EXPECT_TRUE(*got.at(name) == rel)
        << context << ": " << name << " has " << got.at(name)->size()
        << " tuples, from scratch " << rel.size();
  }
}

std::size_t IdbSize(const IncrementalDatalogSession& session) {
  std::size_t total = 0;
  for (const auto& [name, rel] : session.Materialized()) {
    total += rel->size();
  }
  return total;
}

// Applies one batch to the session and the model, then checks both the
// result and the batch's counters.
void ApplyBatch(const DatalogProgram& program, IncrementalDatalogSession& session,
                Model& model, bool insert, const std::vector<Tuple>& batch,
                const std::string& context) {
  const std::size_t before = IdbSize(session);
  std::size_t changed = 0;
  for (const Tuple& t : batch) {
    changed += insert ? model.insert(t).second : model.erase(t);
  }
  const Status status = insert ? session.ApplyInsert("E", batch)
                               : session.ApplyDelete("E", batch);
  ASSERT_TRUE(status.ok()) << context << ": " << status.ToString();
  const IvmStats& stats = session.last_stats();
  EXPECT_EQ(stats.edb_changed, changed) << context;
  const std::size_t after = IdbSize(session);
  if (insert) {
    EXPECT_EQ(stats.idb_inserted, after - before) << context;
  } else {
    EXPECT_EQ(stats.idb_deleted, before - after) << context;
    EXPECT_EQ(stats.rederived + stats.idb_deleted, stats.overestimate)
        << context;
    EXPECT_GE(stats.checked, stats.overestimate) << context;
  }
  ExpectMatchesModel(program, session, model, context);
}

Tuple RandomEdge(std::mt19937& rng) {
  std::uniform_int_distribution<Element> element(0, kUniverse - 1);
  const Element from = element(rng);
  // One edge in six is a self-loop.
  return {from, rng() % 6 == 0 ? from : element(rng)};
}

// A batch of 1-8 tuples: inserts draw fresh random edges; deletes draw
// mostly present edges plus some absent ones. One batch in three repeats
// a tuple.
std::vector<Tuple> RandomBatch(bool insert, const Model& model,
                               std::mt19937& rng) {
  std::vector<Tuple> batch;
  const std::size_t size = 1 + rng() % 8;
  const std::vector<Tuple> present(model.begin(), model.end());
  while (batch.size() < size) {
    if (!insert && !present.empty() && rng() % 4 != 0) {
      batch.push_back(present[rng() % present.size()]);
    } else {
      batch.push_back(RandomEdge(rng));
    }
  }
  if (rng() % 3 == 0) {
    batch.push_back(batch[rng() % batch.size()]);
  }
  return batch;
}

TEST(IvmModelTest, RandomBatchesOnSmallUniverses) {
  for (const NamedProgram& np : Programs()) {
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      std::mt19937 rng(seed);
      Model model;
      Structure g = MakeEmptyGraph(kUniverse);
      for (int k = 0; k < 14; ++k) {
        const Tuple t = RandomEdge(rng);
        if (model.insert(t).second) {
          g.AddTuple(0, t);
        }
      }
      Result<IncrementalDatalogSession> session =
          IncrementalDatalogSession::Create(np.program, g);
      ASSERT_TRUE(session.ok()) << np.name << ": "
                                << session.status().ToString();
      ExpectMatchesModel(np.program, *session, model, np.name + " initial");
      for (int b = 0; b < 40; ++b) {
        // Deletes outnumber inserts 3:2 so graphs shrink to empty and
        // regrow.
        const bool insert = rng() % 5 < 2;
        const std::string context = np.name + " seed " +
                                    std::to_string(seed) + " batch " +
                                    std::to_string(b) +
                                    (insert ? " insert" : " delete");
        ApplyBatch(np.program, *session, model, insert,
                   RandomBatch(insert, model, rng), context);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

// Two chains of four edges, 0->...->4 and 5->...->9, with spare nodes 10
// and 11. Batches add chain extensions (a chain's end to a spare) and
// in-chain shortcuts, then delete the same batch again, as a write-heavy
// client would; random extra deletes hit the chains themselves.
TEST(IvmModelTest, ChainForestWithShortcuts) {
  constexpr Element kChainNodes = 5;
  for (const NamedProgram& np : Programs()) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      std::mt19937 rng(seed);
      Model model;
      Structure g = MakeEmptyGraph(kUniverse);
      for (Element c = 0; c < 2; ++c) {
        for (Element i = 0; i + 1 < kChainNodes; ++i) {
          const Tuple t = {c * kChainNodes + i, c * kChainNodes + i + 1};
          model.insert(t);
          g.AddTuple(0, t);
        }
      }
      Result<IncrementalDatalogSession> session =
          IncrementalDatalogSession::Create(np.program, g);
      ASSERT_TRUE(session.ok()) << np.name;
      for (int round = 0; round < 12; ++round) {
        std::vector<Tuple> batch;
        for (int k = 0; k < 4; ++k) {
          const Element base = static_cast<Element>(rng() % 2) * kChainNodes;
          if (rng() % 2 == 0) {
            batch.push_back({base + kChainNodes - 1,
                             static_cast<Element>(10 + rng() % 2)});
          } else {
            const Element i = static_cast<Element>(rng() % (kChainNodes - 2));
            const Element j =
                i + 2 + static_cast<Element>(rng() % (kChainNodes - 2 - i));
            batch.push_back({base + i, base + j});
          }
        }
        const std::string context = np.name + " seed " +
                                    std::to_string(seed) + " round " +
                                    std::to_string(round);
        // A shortcut already present (or a repeat in the batch) is not
        // new, so deleting the batch also removes it from the model.
        ApplyBatch(np.program, *session, model, true, batch,
                   context + " insert");
        ApplyBatch(np.program, *session, model, false, batch,
                   context + " delete");
        if (rng() % 3 == 0 && !model.empty()) {
          const Tuple present =
              *std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                            rng() % model.size()));
          ApplyBatch(np.program, *session, model, false,
                     {RandomEdge(rng), present}, context + " chain delete");
          ApplyBatch(np.program, *session, model, true,
                     {RandomEdge(rng)}, context + " regrow");
        }
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fmtk
