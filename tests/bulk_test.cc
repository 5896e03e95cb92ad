#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "base/interner.h"
#include "structures/bulk_load.h"
#include "structures/relation.h"
#include "structures/relation_builder.h"

namespace fmtk {
namespace {

// Reference model: build the same relation tuple-at-a-time.
Relation Incremental(std::size_t arity, const std::vector<Tuple>& rows) {
  Relation r(arity);
  for (const Tuple& t : rows) {
    r.Add(t);
  }
  return r;
}

TEST(RelationBuilderTest, SmallPackedBuild) {
  RelationBuilder b(2);
  for (const Tuple& t :
       std::vector<Tuple>{{3, 1}, {0, 2}, {3, 1}, {0, 0}, {2, 3}}) {
    b.Add(t);
  }
  Relation r = b.Build();
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(b.DuplicatesDropped(), 1u);
  EXPECT_TRUE(r.Contains({3, 1}));
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_FALSE(r.Contains({1, 3}));
  // The flat store comes out lexicographically sorted.
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_TRUE(std::lexicographical_compare(
        r.TupleData(i - 1), r.TupleData(i - 1) + 2, r.TupleData(i),
        r.TupleData(i) + 2));
  }
}

TEST(RelationBuilderTest, ArityZeroAndOne) {
  RelationBuilder empty(0);
  EXPECT_TRUE(empty.Build().empty());

  RelationBuilder flag(0);
  flag.Add(Tuple{});
  flag.Add(Tuple{});
  Relation r0 = flag.Build();
  EXPECT_EQ(r0.size(), 1u);
  EXPECT_TRUE(r0.Contains({}));

  RelationBuilder unary(1);
  for (Element e : {5u, 2u, 5u, 9u, 0u}) {
    unary.Add(Tuple{e});
  }
  Relation r1 = unary.Build();
  EXPECT_EQ(r1.size(), 4u);
  EXPECT_TRUE(r1.Contains({9}));
  EXPECT_FALSE(r1.Contains({1}));
}

TEST(RelationBuilderTest, MultiRunMergeMatchesIncremental) {
  // Tiny runs force the k-way merge across many runs, with duplicates that
  // only collide across run boundaries.
  std::mt19937_64 rng(7);
  std::vector<Tuple> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({static_cast<Element>(rng() % 20),
                    static_cast<Element>(rng() % 20)});
  }
  RelationBuilder b(2, /*run_rows=*/8);
  for (const Tuple& t : rows) {
    b.Add(t);
  }
  Relation bulk = b.Build();
  Relation reference = Incremental(2, rows);
  EXPECT_EQ(bulk.size(), reference.size());
  EXPECT_TRUE(bulk == reference);
  EXPECT_EQ(b.rows_added(), 500u);
  EXPECT_EQ(b.rows_built(), bulk.size());
}

TEST(RelationBuilderTest, WideArityMatchesIncremental) {
  std::mt19937_64 rng(11);
  std::vector<Tuple> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back({static_cast<Element>(rng() % 6),
                    static_cast<Element>(rng() % 6),
                    static_cast<Element>(rng() % 6),
                    static_cast<Element>(rng() % 6)});
  }
  RelationBuilder b(4, /*run_rows=*/16);
  for (const Tuple& t : rows) {
    b.Add(t);
  }
  Relation bulk = b.Build();
  EXPECT_TRUE(bulk == Incremental(4, rows));
}

TEST(RelationBuilderTest, BulkColumnIndexesMatchIncremental) {
  std::mt19937_64 rng(13);
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({static_cast<Element>(rng() % 15),
                    static_cast<Element>(rng() % 15)});
  }
  RelationBuilder b(2, /*run_rows=*/32);
  for (const Tuple& t : rows) {
    b.Add(t);
  }
  Relation bulk = b.Build(/*build_column_indexes=*/true);
  Relation reference = Incremental(2, rows);
  for (std::size_t col = 0; col < 2; ++col) {
    EXPECT_EQ(bulk.ColumnValues(col), reference.ColumnValues(col));
    for (Element e : bulk.ColumnValues(col)) {
      // Postings address different insertion orders in the two relations;
      // compare the tuple multisets they select.
      std::vector<Tuple> a, c;
      for (std::size_t i : bulk.MatchesAt(col, e)) {
        a.emplace_back(bulk.TupleData(i), bulk.TupleData(i) + 2);
      }
      for (std::size_t i : reference.MatchesAt(col, e)) {
        c.emplace_back(reference.TupleData(i), reference.TupleData(i) + 2);
      }
      std::sort(a.begin(), a.end());
      std::sort(c.begin(), c.end());
      EXPECT_EQ(a, c) << "column " << col << " element " << e;
    }
  }
}

TEST(RelationBuilderTest, AddAfterBulkBuildStillWorks) {
  RelationBuilder b(2);
  b.Add(Tuple{0, 1});
  b.Add(Tuple{2, 3});
  Relation r = b.Build();
  EXPECT_FALSE(r.Add({0, 1}));  // Already in the sorted prefix.
  EXPECT_TRUE(r.Add({1, 1}));   // New row lands in the hash suffix.
  EXPECT_FALSE(r.Add({1, 1}));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains({1, 1}));
  // Column index catches up over the appended suffix.
  EXPECT_EQ(r.MatchesAt(0, 1).size(), 1u);
}

TEST(StringInternerTest, DenseIdsInFirstAppearanceOrder) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alice"), 0u);
  EXPECT_EQ(interner.Intern("bob"), 1u);
  EXPECT_EQ(interner.Intern("alice"), 0u);
  EXPECT_EQ(interner.Intern("carol"), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.NameOf(1), "bob");
  EXPECT_EQ(interner.Find("dave"), nullptr);
  // Views stay valid across arena growth.
  std::string_view first = interner.NameOf(0);
  for (int i = 0; i < 50000; ++i) {
    interner.Intern("key" + std::to_string(i));
  }
  EXPECT_EQ(first, "alice");
  EXPECT_EQ(interner.NameOf(0), "alice");
}

TEST(EdgeListLoaderTest, InternModeBuildsDenseGraph) {
  DiagnosticSink sink;
  Result<LoadedGraph> g = LoadEdgeListText(
      "alice bob\nbob carol\ncarol alice\n", {}, &sink);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->structure.domain_size(), 3u);
  ASSERT_EQ(g->ids.size(), 3u);
  EXPECT_EQ(g->ids[0], "alice");
  EXPECT_EQ(g->ids[2], "carol");
  const Relation& e = g->structure.relation(0);
  EXPECT_EQ(e.size(), 3u);
  EXPECT_TRUE(e.Contains({0, 1}));  // alice -> bob
  EXPECT_TRUE(e.Contains({2, 0}));  // carol -> alice
  EXPECT_EQ(g->stats.records, 3u);
  EXPECT_EQ(g->stats.bytes, 32u);
}

TEST(EdgeListLoaderTest, NumericModeInfersDomain) {
  EdgeListOptions numeric;
  numeric.id_mode = EdgeListOptions::IdMode::kNumeric;
  Result<LoadedGraph> g = LoadEdgeListText("0 5\n2 1\n", numeric);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->structure.domain_size(), 6u);  // max id + 1
  EXPECT_TRUE(g->ids.empty());
  EXPECT_TRUE(g->structure.relation(0).Contains({0, 5}));
}

TEST(EdgeListLoaderTest, SeparatorsCommentsAndUndirected) {
  EdgeListOptions options;
  options.relation_name = "adj";
  options.undirected = true;
  Result<LoadedGraph> g = LoadEdgeListText(
      "# header\n"
      "a,b\n"
      "b\tc\n"
      "% trailer comment\n",
      options);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->structure.signature().relation(0).name, "adj");
  const Relation& adj = g->structure.relation(0);
  EXPECT_EQ(adj.size(), 4u);  // Both orientations of both edges.
  EXPECT_TRUE(adj.Contains({1, 0}));
  EXPECT_TRUE(adj.Contains({2, 1}));
}

TEST(EdgeListLoaderTest, CrLfAndNoTrailingNewline) {
  Result<LoadedGraph> g = LoadEdgeListText("0 1\r\n1 2");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->structure.relation(0).size(), 2u);
}

TEST(EdgeListLoaderTest, LoaderAgreesWithIncrementalAdds) {
  // Differential check on a random graph: the streamed bulk path and the
  // naive AddTuple path produce the same structure.
  std::mt19937_64 rng(42);
  std::string text;
  std::vector<Tuple> edges;
  for (int i = 0; i < 2000; ++i) {
    const Element u = static_cast<Element>(rng() % 50);
    const Element v = static_cast<Element>(rng() % 50);
    text += std::to_string(u) + " " + std::to_string(v) + "\n";
    edges.push_back({u, v});
  }
  EdgeListOptions numeric;
  numeric.id_mode = EdgeListOptions::IdMode::kNumeric;
  numeric.domain_size = 50;
  Result<LoadedGraph> g = LoadEdgeListText(text, numeric);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->structure.relation(0) == Incremental(2, edges));
}

}  // namespace
}  // namespace fmtk
