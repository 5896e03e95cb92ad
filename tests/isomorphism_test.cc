#include <algorithm>

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/hash.h"
#include "structures/generators.h"
#include "structures/graph.h"
#include "structures/isomorphism.h"

namespace fmtk {
namespace {

TEST(PartialIsoTest, EmptyMapIsPartialIso) {
  EXPECT_TRUE(IsPartialIsomorphism(MakeDirectedPath(3), MakeDirectedCycle(4),
                                   {}));
}

TEST(PartialIsoTest, RespectsEdges) {
  Structure p = MakeDirectedPath(3);  // 0->1->2
  Structure q = MakeDirectedPath(3);
  EXPECT_TRUE(IsPartialIsomorphism(p, q, {{0, 0}, {1, 1}}));
  // Mapping an edge to a non-edge fails.
  EXPECT_FALSE(IsPartialIsomorphism(p, q, {{0, 0}, {1, 2}}));
  // Order-reversing map on a directed path fails.
  EXPECT_FALSE(IsPartialIsomorphism(p, q, {{0, 1}, {1, 0}}));
}

TEST(PartialIsoTest, InjectivityRequired) {
  Structure s = MakeSet(3);
  Structure t = MakeSet(3);
  EXPECT_FALSE(IsPartialIsomorphism(s, t, {{0, 0}, {1, 0}}));
  EXPECT_FALSE(IsPartialIsomorphism(s, t, {{0, 0}, {0, 1}}));
  // Repeating the same pair is fine.
  EXPECT_TRUE(IsPartialIsomorphism(s, t, {{0, 0}, {0, 0}}));
}

TEST(PartialIsoTest, SetsAlwaysMatch) {
  EXPECT_TRUE(IsPartialIsomorphism(MakeSet(5), MakeSet(9),
                                   {{0, 3}, {1, 7}, {4, 0}}));
}

TEST(PartialIsoTest, LinearOrderPreservesOrderOnly) {
  Structure a = MakeLinearOrder(5);
  Structure b = MakeLinearOrder(7);
  EXPECT_TRUE(IsPartialIsomorphism(a, b, {{0, 2}, {3, 5}}));
  EXPECT_FALSE(IsPartialIsomorphism(a, b, {{0, 5}, {3, 2}}));
}

TEST(IsoTest, IdenticalStructures) {
  Structure c = MakeDirectedCycle(6);
  EXPECT_TRUE(AreIsomorphic(c, c));
}

TEST(IsoTest, CyclesOfDifferentLengths) {
  EXPECT_FALSE(AreIsomorphic(MakeDirectedCycle(6), MakeDirectedCycle(5)));
}

TEST(IsoTest, SameSizeDifferentShape) {
  // 6-cycle vs two 3-cycles: same node and edge counts.
  EXPECT_FALSE(
      AreIsomorphic(MakeDirectedCycle(6), MakeDisjointCycles(2, 3)));
}

TEST(IsoTest, RelabelledGraphIsIsomorphic) {
  // Build a path with scrambled labels.
  Structure p = MakeDirectedPath(5);
  Structure q(Signature::Graph(), 5);
  // 3->0->4->1->2 is a path under the relabeling.
  q.AddTuple(0, {3, 0});
  q.AddTuple(0, {0, 4});
  q.AddTuple(0, {4, 1});
  q.AddTuple(0, {1, 2});
  EXPECT_TRUE(AreIsomorphic(p, q));
}

TEST(IsoTest, DistinguishedTuplesConstrain) {
  Structure p = MakeDirectedPath(3);
  // The path has an automorphism only as identity; mapping endpoint 0 to
  // endpoint 2 is impossible (orientation).
  EXPECT_TRUE(AreIsomorphic(p, p, {0}, {0}));
  EXPECT_FALSE(AreIsomorphic(p, p, {0}, {2}));
  EXPECT_FALSE(AreIsomorphic(p, p, {0}, {1}));
}

TEST(IsoTest, DistinguishedTupleSymmetry) {
  // On a cycle every node looks alike: any node can map to any node.
  Structure c = MakeDirectedCycle(5);
  for (Element i = 0; i < 5; ++i) {
    EXPECT_TRUE(AreIsomorphic(c, c, {0}, {i}));
  }
  // Pairs: rotation must preserve distance along the cycle.
  EXPECT_TRUE(AreIsomorphic(c, c, {0, 2}, {1, 3}));
  EXPECT_FALSE(AreIsomorphic(c, c, {0, 2}, {1, 4}));
}

TEST(IsoTest, DistinguishedTuplesWithRepeats) {
  Structure c = MakeDirectedCycle(4);
  EXPECT_TRUE(AreIsomorphic(c, c, {0, 0}, {2, 2}));
  EXPECT_FALSE(AreIsomorphic(c, c, {0, 0}, {2, 3}));
}

TEST(IsoTest, SizeMismatch) {
  EXPECT_FALSE(AreIsomorphic(MakeSet(3), MakeSet(4)));
}

TEST(IsoTest, SignatureMismatch) {
  EXPECT_FALSE(AreIsomorphic(MakeLinearOrder(3), MakeDirectedPath(3)));
}

TEST(IsoTest, ConstantsMustCorrespond) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure a(sig, 3);
  a.AddTuple(0, {0, 1});
  a.SetConstant(0, 0);
  Structure b(sig, 3);
  b.AddTuple(0, {0, 1});
  b.SetConstant(0, 1);
  // a's constant is the edge source, b's is the target: not isomorphic.
  EXPECT_FALSE(AreIsomorphic(a, b));
  b.SetConstant(0, 0);
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(IsoTest, TreesVsPaths) {
  EXPECT_FALSE(AreIsomorphic(MakeFullBinaryTree(2), MakeDirectedPath(7)));
}

TEST(IsoTest, RandomGraphSelfIsomorphicUnderPermutation) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Structure g = MakeRandomGraph(7, 0.3, rng);
    // Apply a random permutation.
    std::vector<Element> perm(7);
    for (Element i = 0; i < 7; ++i) {
      perm[i] = i;
    }
    std::shuffle(perm.begin(), perm.end(), rng);
    Structure h(Signature::Graph(), 7);
    for (const auto t : g.relation(0).rows()) {
      h.AddTuple(0, {perm[t[0]], perm[t[1]]});
    }
    EXPECT_TRUE(AreIsomorphic(g, h));
  }
}

TEST(IsoTest, PerturbedRandomGraphNotIsomorphic) {
  std::mt19937_64 rng(5);
  Structure g = MakeRandomGraph(7, 0.3, rng);
  Structure h = g;
  // Add one extra edge.
  for (Element i = 0; i < 7; ++i) {
    bool added = false;
    for (Element j = 0; j < 7; ++j) {
      if (i != j && !h.relation(0).Contains({i, j})) {
        h.AddTuple(0, {i, j});
        added = true;
        break;
      }
    }
    if (added) {
      break;
    }
  }
  EXPECT_FALSE(AreIsomorphic(g, h));
}

TEST(InvariantTest, IsomorphicPairsAgree) {
  Structure p = MakeDirectedPath(5);
  Structure q(Signature::Graph(), 5);
  q.AddTuple(0, {3, 0});
  q.AddTuple(0, {0, 4});
  q.AddTuple(0, {4, 1});
  q.AddTuple(0, {1, 2});
  EXPECT_EQ(IsomorphismInvariant(p), IsomorphismInvariant(q));
  EXPECT_EQ(IsomorphismInvariant(p, {0}), IsomorphismInvariant(q, {3}));
}

TEST(InvariantTest, DiscriminatesBasicFamilies) {
  EXPECT_NE(IsomorphismInvariant(MakeDirectedCycle(6)),
            IsomorphismInvariant(MakeDisjointCycles(2, 3)));
  EXPECT_NE(IsomorphismInvariant(MakeDirectedPath(4)),
            IsomorphismInvariant(MakeDirectedPath(5)));
}

TEST(InvariantTest, DistinguishedPositionMatters) {
  Structure p = MakeDirectedPath(5);
  EXPECT_NE(IsomorphismInvariant(p, {0}), IsomorphismInvariant(p, {2}));
}


// Pins the early-stopping IsomorphismInvariant to the original definition:
// initial colors, then n unconditional 1-WL rounds over the Gaifman graph,
// then the final fold. The production version stops refining once the color
// partition stabilizes and fast-forwards the remaining rounds on the class
// quotient; this reference runs every round per element. The results must
// be bit-identical, hash collisions included.
std::size_t ReferenceInvariant(const Structure& s, const Tuple& distinguished) {
  const std::size_t n = s.domain_size();
  Adjacency adjacency = GaifmanAdjacency(s);
  std::vector<std::size_t> color(n);
  for (Element e = 0; e < n; ++e) {
    std::size_t h = 0x517cc1b727220a95ULL;
    for (std::size_t v : AtomicInvariantOf(s, e)) {
      HashCombine(h, v);
    }
    for (std::size_t i = 0; i < distinguished.size(); ++i) {
      if (distinguished[i] == e) {
        HashCombine(h, i + 1);
      }
    }
    std::vector<std::size_t> profile = BfsDistances(adjacency, {e});
    std::sort(profile.begin(), profile.end());
    for (std::size_t d : profile) {
      HashCombine(h, d);
    }
    color[e] = h;
  }
  for (std::size_t round = 0; round < n; ++round) {
    std::vector<std::size_t> next(n);
    for (Element e = 0; e < n; ++e) {
      std::vector<std::size_t> neighbor_colors;
      neighbor_colors.reserve(adjacency[e].size());
      for (Element w : adjacency[e]) {
        neighbor_colors.push_back(color[w]);
      }
      std::sort(neighbor_colors.begin(), neighbor_colors.end());
      std::size_t h = color[e];
      for (std::size_t c : neighbor_colors) {
        HashCombine(h, c);
      }
      next[e] = h;
    }
    color = std::move(next);
  }
  std::size_t seed = n;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    HashCombine(seed, s.relation(r).size());
  }
  std::vector<std::size_t> sorted_colors = color;
  std::sort(sorted_colors.begin(), sorted_colors.end());
  for (std::size_t c : sorted_colors) {
    HashCombine(seed, c);
  }
  for (Element e : distinguished) {
    HashCombine(seed, e < n ? color[e] : static_cast<std::size_t>(-1));
  }
  return seed;
}

TEST(InvariantTest, EarlyStopMatchesFullRoundReference) {
  std::vector<Structure> pool;
  pool.push_back(MakeDirectedPath(7));
  pool.push_back(MakeDirectedCycle(9));
  pool.push_back(MakeDisjointCycles(2, 4));
  pool.push_back(MakePathPlusCycle(4));
  pool.push_back(MakeFullBinaryTree(3));
  pool.push_back(MakeGrid(3, 4));
  pool.push_back(MakeCompleteGraph(5));
  pool.push_back(MakeEmptyGraph(5));
  pool.push_back(MakeSet(4));
  pool.push_back(MakeLinearOrder(6));
  std::mt19937_64 rng(20260807);
  for (int i = 0; i < 8; ++i) {
    pool.push_back(MakeRandomGraph(11, 0.2, rng));
    pool.push_back(MakeRandomGraph(8, 0.5, rng));
  }
  for (const Structure& s : pool) {
    EXPECT_EQ(IsomorphismInvariant(s), ReferenceInvariant(s, {}));
    if (s.domain_size() >= 3) {
      const Tuple one = {1};
      const Tuple two = {2, 0};
      EXPECT_EQ(IsomorphismInvariant(s, one), ReferenceInvariant(s, one));
      EXPECT_EQ(IsomorphismInvariant(s, two), ReferenceInvariant(s, two));
    }
  }
}

}  // namespace
}  // namespace fmtk
