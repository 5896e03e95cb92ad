// Model-based test of Relation: fixed-seed random operation sequences run
// against a std::set<Tuple> model at arities 1, 2 and 3. After every
// operation the relation's membership, row positions, rows() view, column
// indexes and postings must agree with the model, whichever store layout
// (sorted prefix, hashed tail, both) the operation left behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "structures/relation.h"

namespace fmtk {
namespace {

using Model = std::set<Tuple>;

// The row order the relation must show through rows(): rows [0, unordered)
// are the survivors of a swap-with-last erase, whose order is unspecified
// (only their set is checked); every later row is in exact store order —
// insertion order for Add, sorted for bulk builds and Consolidate.
struct RowOrder {
  std::vector<Tuple> rows;
  std::size_t unordered = 0;

  void Reset(std::vector<Tuple> in_order) {
    rows = std::move(in_order);
    unordered = 0;
  }
};

constexpr Element kUniverse = 6;
constexpr Element kFarProbe = Element{1} << 31;

// Every tuple over {0, ..., kUniverse-1} of the given arity.
std::vector<Tuple> AllTuples(std::size_t arity) {
  std::vector<Tuple> out(1);
  for (std::size_t c = 0; c < arity; ++c) {
    std::vector<Tuple> next;
    for (const Tuple& t : out) {
      for (Element e = 0; e < kUniverse; ++e) {
        Tuple extended = t;
        extended.push_back(e);
        next.push_back(std::move(extended));
      }
    }
    out = std::move(next);
  }
  return out;
}

Tuple RandomTuple(std::size_t arity, std::mt19937& rng) {
  std::uniform_int_distribution<Element> element(0, kUniverse - 1);
  Tuple t(arity);
  for (Element& e : t) {
    e = element(rng);
  }
  return t;
}

std::vector<Element> FlatRows(const Model& model) {
  std::vector<Element> rows;
  for (const Tuple& t : model) {
    rows.insert(rows.end(), t.begin(), t.end());
  }
  return rows;
}

std::vector<std::uint64_t> PackedRows(const Model& model) {
  std::vector<std::uint64_t> keys;
  for (const Tuple& t : model) {
    std::uint64_t key = 0;
    for (const Element e : t) {
      key = (key << 32) | e;
    }
    keys.push_back(key);
  }
  return keys;
}

// A bulk-built relation over a random subset of the universe.
Relation Decoy(std::size_t arity, std::mt19937& rng) {
  Model decoy;
  for (int k = 0; k < 8; ++k) {
    decoy.insert(RandomTuple(arity, rng));
  }
  return Relation::FromSortedRows(arity, FlatRows(decoy));
}

void CheckRows(const Relation& r, const RowOrder& order) {
  const std::size_t arity = r.arity();
  std::vector<Tuple> seen;
  std::size_t i = 0;
  for (const auto row : r.rows()) {
    ASSERT_EQ(row.size(), arity);
    ASSERT_EQ(row.data(), r.TupleData(i)) << "row " << i;
    seen.emplace_back(row.begin(), row.end());
    ++i;
  }
  ASSERT_EQ(seen.size(), r.size());
  ASSERT_EQ(seen.size(), order.rows.size());
  const auto split = static_cast<std::ptrdiff_t>(order.unordered);
  std::vector<Tuple> head(seen.begin(), seen.begin() + split);
  std::vector<Tuple> expected_head(order.rows.begin(),
                                   order.rows.begin() + split);
  std::sort(head.begin(), head.end());
  std::sort(expected_head.begin(), expected_head.end());
  ASSERT_EQ(head, expected_head);
  for (std::size_t k = order.unordered; k < seen.size(); ++k) {
    ASSERT_EQ(seen[k], order.rows[k]) << "row " << k << " out of order";
  }
}

void CheckAgainstModel(const Relation& r, const Model& model,
                       const RowOrder& order,
                       const std::vector<Tuple>& universe) {
  const std::size_t arity = r.arity();
  ASSERT_EQ(r.size(), model.size());
  CheckRows(r, order);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  for (std::size_t i = 0; i < r.size(); ++i) {
    const Element* row = r.TupleData(i);
    ASSERT_EQ(model.count(Tuple(row, row + arity)), 1u) << "stray row " << i;
    ASSERT_EQ(r.Position(row), i);
  }
  for (const Tuple& t : universe) {
    ASSERT_EQ(r.Contains(t), model.count(t) == 1) << r.ToString();
    if (model.count(t) == 0) {
      ASSERT_EQ(r.Position(t.data()), Relation::kNoPosition);
    }
  }
  // Membership probes past the dense span, in every column.
  for (std::size_t c = 0; c < arity; ++c) {
    for (const Element far : {kUniverse, kFarProbe}) {
      Tuple probe(arity, 0);
      probe[c] = far;
      ASSERT_FALSE(r.Contains(probe));
    }
  }
  for (std::size_t c = 0; c < arity; ++c) {
    std::set<Element> values;
    for (const Tuple& t : model) {
      values.insert(t[c]);
    }
    ASSERT_EQ(r.ColumnValues(c),
              std::vector<Element>(values.begin(), values.end()));
    const Relation::ColumnIndex& index = r.column_index(c);
    ASSERT_EQ(index.indexed_upto, r.size());
    for (Element e = 0; e <= kUniverse; ++e) {
      const std::vector<std::size_t> matches = r.MatchesAt(c, e);
      ASSERT_TRUE(std::is_sorted(matches.begin(), matches.end()));
      std::size_t expected = 0;
      for (const Tuple& t : model) {
        expected += t[c] == e;
      }
      ASSERT_EQ(matches.size(), expected) << "column " << c << " element " << e;
      ASSERT_EQ(index.Find(e).size(), expected);
      for (const std::size_t i : matches) {
        ASSERT_LT(i, r.size());
        ASSERT_EQ(r.TupleData(i)[c], e);
      }
    }
    ASSERT_TRUE(r.MatchesAt(c, kFarProbe).empty());
    ASSERT_TRUE(index.Find(kFarProbe).empty());
  }
}

// Erases a random selection of the rows at positions [begin, end), plus one
// tuple that may or may not be present. A store with a sorted prefix keeps
// the survivors' order; a fully hashed one fills gaps from the back.
void EraseSomeRows(Relation& r, Model& model, RowOrder& order,
                   std::size_t begin, std::size_t end, std::mt19937& rng) {
  const std::size_t arity = r.arity();
  const bool order_preserving = r.unsorted_rows() < r.size();
  Relation doomed(arity);
  for (std::size_t i = begin; i < end; ++i) {
    if (rng() % 3 == 0) {
      const Element* row = r.TupleData(i);
      doomed.Add(Tuple(row, row + arity));
    }
  }
  doomed.Add(RandomTuple(arity, rng));
  std::size_t expected = 0;
  for (const auto t : doomed.rows()) {
    expected += model.erase(Tuple(t.begin(), t.end()));
  }
  ASSERT_EQ(r.EraseRows(doomed), expected);
  if (expected == 0) {
    return;  // Nothing moved.
  }
  std::erase_if(order.rows, [&doomed](const Tuple& t) {
    return doomed.Contains(t);
  });
  order.unordered = order_preserving ? 0 : order.rows.size();
}

std::vector<Tuple> Sorted(const Model& model) {
  return {model.begin(), model.end()};
}

void RunRandomOperations(std::size_t arity, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::vector<Tuple> universe = AllTuples(arity);
  Relation r(arity);
  Model model;
  RowOrder order;
  constexpr int kOperations = 400;
  for (int step = 0; step < kOperations; ++step) {
    const std::size_t prefix = r.size() - r.unsorted_rows();
    const int op = static_cast<int>(rng() % 12);
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step) + " op " + std::to_string(op));
    switch (op) {
      case 0:
      case 1:
      case 2: {
        // Add-heavy, so the hashed tail grows between rebuilds.
        for (int k = 0; k < 3; ++k) {
          const Tuple t = RandomTuple(arity, rng);
          const bool fresh = model.insert(t).second;
          ASSERT_EQ(r.Add(t), fresh);
          if (fresh) {
            order.rows.push_back(t);
          }
        }
        break;
      }
      case 3:
        // Re-adding a present row is rejected and moves nothing.
        if (!r.empty()) {
          const Element* row = r.TupleData(rng() % r.size());
          ASSERT_FALSE(r.Add(Tuple(row, row + arity)));
        }
        break;
      case 4:
        EraseSomeRows(r, model, order, 0, prefix, rng);
        break;
      case 5:
        EraseSomeRows(r, model, order, prefix, r.size(), rng);
        break;
      case 6:
        EraseSomeRows(r, model, order, 0, r.size(), rng);
        break;
      case 7:
        r.Consolidate();
        ASSERT_EQ(r.unsorted_rows(), 0u);
        order.Reset(Sorted(model));
        break;
      case 8:
        r = Relation::FromSortedRows(arity, FlatRows(model), rng() % 2 == 0);
        order.Reset(Sorted(model));
        break;
      case 9:
        if (arity <= 2) {
          r = Relation::FromSortedPackedRows(arity, PackedRows(model),
                                             rng() % 2 == 0);
          order.Reset(Sorted(model));
        }
        break;
      case 10: {
        // A fresh Add-built relation in shuffled order, one duplicate
        // rejected on the way, moved in.
        std::vector<Tuple> shuffled(model.begin(), model.end());
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        Relation built(arity);
        for (const Tuple& t : shuffled) {
          ASSERT_TRUE(built.Add(t));
        }
        if (!shuffled.empty()) {
          ASSERT_FALSE(built.Add(shuffled[0]));
        }
        r = std::move(built);
        order.Reset(std::move(shuffled));
        break;
      }
      case 11: {
        // Assignments land on a bulk-built relation with a different
        // sorted prefix, so a stale membership directory would show.
        const Relation copy(r);
        CheckAgainstModel(copy, model, order, universe);
        Relation assigned = Decoy(arity, rng);
        assigned = copy;
        CheckAgainstModel(assigned, model, order, universe);
        Relation moved(std::move(assigned));
        CheckAgainstModel(moved, model, order, universe);
        r = Decoy(arity, rng);
        r = std::move(moved);
        break;
      }
    }
    CheckAgainstModel(r, model, order, universe);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(RelationModelTest, UnaryMatchesSetModel) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    RunRandomOperations(1, seed);
  }
}

TEST(RelationModelTest, BinaryMatchesSetModel) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    RunRandomOperations(2, seed);
  }
}

TEST(RelationModelTest, TernaryMatchesSetModel) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    RunRandomOperations(3, seed);
  }
}

// A single row at element 2^20 is far outside the dense span guard
// (4·rows + 1024): the column index keeps it in the hash tail and the
// sorted prefix falls back to a search over the whole prefix.
TEST(RelationModelTest, SparseRelationTakesHashFallback) {
  constexpr Element kSparse = Element{1} << 20;
  for (const bool bulk_indexes : {true, false}) {
    Relation r = Relation::FromSortedRows(2, {kSparse, kSparse}, bulk_indexes);
    EXPECT_TRUE(r.Contains({kSparse, kSparse}));
    EXPECT_FALSE(r.Contains({kSparse, 0}));
    EXPECT_FALSE(r.Contains({0, kSparse}));
    EXPECT_FALSE(r.Contains({kFarProbe, kSparse}));
    for (std::size_t c = 0; c < 2; ++c) {
      const Relation::ColumnIndex& index = r.column_index(c);
      EXPECT_TRUE(index.offsets.empty());
      EXPECT_EQ(index.values, (std::vector<Element>{kSparse}));
      EXPECT_EQ(index.Find(kSparse).size(), 1u);
      EXPECT_TRUE(index.Find(0).empty());
      EXPECT_TRUE(index.Find(kFarProbe).empty());
      EXPECT_EQ(r.MatchesAt(c, kSparse), (std::vector<std::size_t>{0}));
    }
    // Growing the relation keeps the sparse column in the tail map.
    EXPECT_TRUE(r.Add({0, 1}));
    EXPECT_FALSE(r.Add({kSparse, kSparse}));
    EXPECT_EQ(r.MatchesAt(0, 0), (std::vector<std::size_t>{1}));
    EXPECT_EQ(r.ColumnValues(0), (std::vector<Element>{0, kSparse}));
    r.Consolidate();
    EXPECT_TRUE(r.Contains({0, 1}));
    EXPECT_TRUE(r.Contains({kSparse, kSparse}));
    EXPECT_EQ(r.MatchesAt(1, kSparse), (std::vector<std::size_t>{1}));
  }
}

}  // namespace
}  // namespace fmtk
