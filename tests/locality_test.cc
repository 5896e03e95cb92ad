#include <gtest/gtest.h>

#include <optional>

#include "core/locality/bndp.h"
#include "logic/parser.h"
#include "core/locality/gaifman_local.h"
#include "core/locality/hanf.h"
#include "core/locality/neighborhood.h"
#include "queries/boolean_query.h"
#include "queries/relation_query.h"
#include "structures/generators.h"
#include "structures/graph.h"

namespace fmtk {
namespace {

TEST(BallTest, RadiusGrowsBall) {
  Structure p = MakeDirectedPath(7);
  Adjacency g = GaifmanAdjacency(p);
  EXPECT_EQ(Ball(g, {3}, 0), (std::vector<Element>{3}));
  EXPECT_EQ(Ball(g, {3}, 1), (std::vector<Element>{2, 3, 4}));
  EXPECT_EQ(Ball(g, {3}, 2), (std::vector<Element>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Ball(g, {3}, 10).size(), 7u);
}

TEST(BallTest, MultiCenterBall) {
  Structure p = MakeDirectedPath(9);
  Adjacency g = GaifmanAdjacency(p);
  std::vector<Element> b = Ball(g, {0, 8}, 1);
  EXPECT_EQ(b, (std::vector<Element>{0, 1, 7, 8}));
}

TEST(NeighborhoodTest, InducedWithDistinguished) {
  Structure p = MakeDirectedPath(7);
  Adjacency g = GaifmanAdjacency(p);
  Neighborhood n = NeighborhoodOf(p, g, {3}, 1);
  EXPECT_EQ(n.structure.domain_size(), 3u);
  ASSERT_EQ(n.distinguished.size(), 1u);
  EXPECT_EQ(n.distinguished[0], 1u);  // 3 is the middle of {2,3,4}.
  EXPECT_EQ(n.structure.relation(0).size(), 2u);
}

TEST(NeighborhoodTest, InteriorPointsOfAChainLookAlike) {
  // The survey's Gaifman example: interior points of a long chain have
  // isomorphic r-neighborhoods.
  Structure p = MakeDirectedPath(12);
  Adjacency g = GaifmanAdjacency(p);
  Neighborhood n5 = NeighborhoodOf(p, g, {5}, 2);
  Neighborhood n6 = NeighborhoodOf(p, g, {6}, 2);
  Neighborhood n0 = NeighborhoodOf(p, g, {0}, 2);
  EXPECT_TRUE(NeighborhoodsIsomorphic(n5, n6));
  EXPECT_FALSE(NeighborhoodsIsomorphic(n5, n0));
}

TEST(NeighborhoodTest, PairNeighborhoodOrientationMatters) {
  // N_r(a,b) vs N_r(b,a) for far-apart chain points ARE isomorphic (swap
  // the two components) — exactly the observation that kills TC.
  Structure p = MakeDirectedPath(20);
  Adjacency g = GaifmanAdjacency(p);
  Neighborhood ab = NeighborhoodOf(p, g, {5, 14}, 2);
  Neighborhood ba = NeighborhoodOf(p, g, {14, 5}, 2);
  EXPECT_TRUE(NeighborhoodsIsomorphic(ab, ba));
}

TEST(NeighborhoodTypeIndexTest, InternsTypes) {
  Structure p = MakeDirectedPath(10);
  Adjacency g = GaifmanAdjacency(p);
  NeighborhoodTypeIndex index;
  auto t3 = index.TypeOf(NeighborhoodOf(p, g, {3}, 1));
  auto t4 = index.TypeOf(NeighborhoodOf(p, g, {4}, 1));
  auto t0 = index.TypeOf(NeighborhoodOf(p, g, {0}, 1));
  EXPECT_EQ(t3, t4);
  EXPECT_NE(t3, t0);
  // A chain has 3 radius-1 point types: left end, interior, right end.
  EXPECT_EQ(NeighborhoodTypeHistogram(p, 1, index).size(), 3u);
  // Representative round-trips.
  EXPECT_TRUE(NeighborhoodsIsomorphic(index.representative(t3),
                                      NeighborhoodOf(p, g, {5}, 1)));
}

TEST(HistogramTest, CycleIsHomogeneous) {
  Structure c = MakeDirectedCycle(9);
  NeighborhoodTypeIndex index;
  auto histogram = NeighborhoodTypeHistogram(c, 2, index);
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram.begin()->second, 9u);
}

TEST(NeighborhoodTypeIndexTest, RepresentativeReferencesStayStable) {
  // Regression: representatives used to live in a std::vector, so a
  // reference returned by representative() dangled after enough TypeOf
  // calls reallocated the store. The deque-backed index must keep them
  // valid for the index's lifetime.
  Structure p = MakeDirectedPath(40);
  Adjacency g = GaifmanAdjacency(p);
  NeighborhoodTypeIndex index;
  auto first_id = index.TypeOf(NeighborhoodOf(p, g, {0}, 1));
  const Neighborhood& first = index.representative(first_id);
  const std::size_t domain_before = first.structure.domain_size();
  // Interning many distinct radius-r types forces growth of the store.
  for (std::size_t r = 1; r <= 6; ++r) {
    for (Element v = 0; v < p.domain_size(); ++v) {
      (void)index.TypeOf(NeighborhoodOf(p, g, {v}, r));
    }
  }
  EXPECT_GT(index.size(), 10u);
  // The old reference still points at the same, intact neighborhood.
  EXPECT_EQ(first.structure.domain_size(), domain_before);
  EXPECT_TRUE(
      NeighborhoodsIsomorphic(first, NeighborhoodOf(p, g, {0}, 1)));
  EXPECT_EQ(index.TypeOf(NeighborhoodOf(p, g, {0}, 1)), first_id);
}

TEST(NeighborhoodTypeIndexTest, TypeOfFastPathsKickIn) {
  // Re-classifying the same points hits the exact-content cache; fresh
  // isomorphic copies at most pay the invariant + signature pre-filters.
  Structure c = MakeDirectedCycle(12);
  NeighborhoodTypeIndex index;
  (void)NeighborhoodTypeHistogram(c, 2, index);
  const auto& stats = index.stats();
  EXPECT_GT(stats.exact_hits, 0u);  // Interior points share literal content.
  // One type total, so at most a handful of full isomorphism tests ran.
  EXPECT_EQ(index.size(), 1u);
  const auto before = stats.exact_hits;
  (void)NeighborhoodTypeHistogram(c, 2, index);
  EXPECT_GT(index.stats().exact_hits, before);
}

// --- Hanf locality: the survey's cycle example (E9) ------------------------

TEST(HanfTest, TwoCyclesVsOneBigCycle) {
  // G1 = two m-cycles, G2 = one 2m-cycle: ⇆r iff m > 2r + 1, so the
  // largest such r is (m - 2) / 2; yet the pair always differs on CONN.
  const BooleanQuery conn = BooleanQuery::Connectivity();
  for (std::size_t m = 3; m <= 13; ++m) {
    Structure g1 = MakeDisjointCycles(2, m);
    Structure g2 = MakeDirectedCycle(2 * m);
    for (std::size_t r = 0; r <= 6; ++r) {
      const bool expected = m > 2 * r + 1;
      EXPECT_EQ(HanfEquivalent(g1, g2, r), expected)
          << "m=" << m << " r=" << r;
    }
    EXPECT_EQ(LargestHanfRadius(g1, g2, m),
              std::optional<std::size_t>((m - 2) / 2))
        << "m=" << m;
    EXPECT_FALSE(*conn.Evaluate(g1)) << "m=" << m;
    EXPECT_TRUE(*conn.Evaluate(g2)) << "m=" << m;
  }
}

TEST(HanfTest, TreeExample) {
  // Chain of 2m vs chain m ⊎ cycle m: ⇆r while m > 2r + 1; only the
  // chain is a tree.
  const BooleanQuery tree = BooleanQuery::Tree();
  for (std::size_t m = 4; m <= 12; ++m) {
    Structure g1 = MakeDirectedPath(2 * m);
    Structure g2 = MakePathPlusCycle(m);
    for (std::size_t r = 0; r <= 6; ++r) {
      const bool expected = m > 2 * r + 1;
      EXPECT_EQ(HanfEquivalent(g1, g2, r), expected)
          << "m=" << m << " r=" << r;
    }
    EXPECT_TRUE(*tree.Evaluate(g1)) << "m=" << m;
    EXPECT_FALSE(*tree.Evaluate(g2)) << "m=" << m;
  }
}

TEST(HanfTest, CardinalityMismatchNeverHanfEquivalent) {
  Structure a = MakeDirectedCycle(6);
  Structure b = MakeDirectedCycle(8);
  EXPECT_FALSE(HanfEquivalent(a, b, 0));
}

TEST(HanfTest, LargestHanfRadius) {
  Structure g1 = MakeDisjointCycles(2, 7);
  Structure g2 = MakeDirectedCycle(14);
  // m = 7 > 2r+1 iff r <= 2.
  std::optional<std::size_t> r = LargestHanfRadius(g1, g2, 10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 2u);
  // Identical structures: max radius reached.
  Structure c = MakeDirectedCycle(5);
  EXPECT_EQ(LargestHanfRadius(c, c, 4), std::optional<std::size_t>(4));
}

TEST(ThresholdHanfTest, RelaxesCardinality) {
  // Two long chains of different lengths: every r-type is realized either
  // equally often (the two end types) or abundantly (interior), so
  // threshold-Hanf holds even though plain Hanf fails on cardinality.
  Structure a = MakeDirectedPath(20);
  Structure b = MakeDirectedPath(30);
  EXPECT_FALSE(HanfEquivalent(a, b, 1));
  EXPECT_TRUE(ThresholdHanfEquivalent(a, b, 1, 4));
  // With a huge threshold the interior counts (18 vs 28) must match
  // exactly: fails.
  EXPECT_FALSE(ThresholdHanfEquivalent(a, b, 1, 100));
}

TEST(ThresholdHanfTest, TypeOnlyInOneStructureFails) {
  Structure chain = MakeDirectedPath(6);
  Structure cycle = MakeDirectedCycle(6);
  // The chain has endpoint types the cycle lacks.
  EXPECT_FALSE(ThresholdHanfEquivalent(chain, cycle, 1, 2));
}

TEST(ThresholdHanfTest, ZeroThresholdIsTrivial) {
  Structure chain = MakeDirectedPath(6);
  Structure cycle = MakeDirectedCycle(4);
  EXPECT_TRUE(ThresholdHanfEquivalent(chain, cycle, 2, 0));
}

TEST(ThresholdHanfTest, OneSidedTypeBoundary) {
  // Pins the b-only branch of ThresholdHanfEquivalent: a type realized in
  // exactly one structure compares counts (cb, 0), which clears the
  // threshold only when it is 0. The cycle realizes one r=1 type
  // (in/out-degree 1 everywhere); the path adds two endpoint types.
  Structure cycle = MakeDirectedCycle(8);
  Structure path = MakeDirectedPath(8);
  // One-sided types in BOTH directions (path-only endpoint types when b is
  // the path, cycle-only... the interior type is shared), symmetric calls:
  for (std::size_t threshold : {1, 2, 5}) {
    EXPECT_FALSE(ThresholdHanfEquivalent(cycle, path, 1, threshold))
        << "threshold " << threshold;
    EXPECT_FALSE(ThresholdHanfEquivalent(path, cycle, 1, threshold))
        << "threshold " << threshold;
  }
  // threshold == 0: (cb, 0) passes — trivially equivalent.
  EXPECT_TRUE(ThresholdHanfEquivalent(cycle, path, 1, 0));
  EXPECT_TRUE(ThresholdHanfEquivalent(path, cycle, 1, 0));
}

// --- Gaifman locality (E8) --------------------------------------------------

TEST(GaifmanLocalTest, TcOnLongChainViolatesEveryRadius) {
  // The canonical proof: on a long chain, (a,b) and (b,a) have isomorphic
  // r-neighborhoods but TC contains only (a,b). An n-chain hosts such a
  // witness pair exactly for r < n/4, so violations persist to larger
  // radii as the chain grows.
  for (std::size_t n : {8, 12, 16, 20}) {
    Structure chain = MakeDirectedPath(n);
    Result<Relation> tc = RelationQuery::TransitiveClosure().Evaluate(chain);
    ASSERT_TRUE(tc.ok());
    for (std::size_t r = 0; r <= n / 4; ++r) {
      Result<std::optional<GaifmanViolation>> v =
          FindGaifmanViolation(chain, *tc, r);
      ASSERT_TRUE(v.ok());
      if (r == n / 4) {
        EXPECT_FALSE(v->has_value()) << "n=" << n << " r=" << r;
        continue;
      }
      ASSERT_TRUE(v->has_value()) << "n=" << n << " r=" << r;
      // The witness really is a violation, and it is the mirrored pair:
      // (a,b) in TC, (b,a) not.
      const Tuple& in = (*v)->in_output;
      EXPECT_TRUE(tc->Contains(in));
      EXPECT_FALSE(tc->Contains((*v)->not_in_output));
      EXPECT_EQ((*v)->not_in_output, (Tuple{in[1], in[0]}));
    }
  }
}

TEST(GaifmanLocalTest, FoQueryIsLocalAtItsRadius) {
  // The FO query E(x,y) is Gaifman-local with radius 1 on any structure:
  // the 1-neighborhood of (x,y) determines the atom.
  Structure chain = MakeDirectedPath(10);
  Result<Relation> edges =
      RelationQuery::FromFormula("edge", Formula::Atom("E", {V("x"), V("y")}),
                                 {"x", "y"})
          .Evaluate(chain);
  ASSERT_TRUE(edges.ok());
  Result<std::optional<std::size_t>> r =
      GaifmanLocalRadiusOn(chain, *edges, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_LE(**r, 1u);
  // The two-step query ∃z (E(x,z) ∧ E(z,y)) is local at radius exactly 1
  // on chains of every length, while TC's violations keep growing.
  const RelationQuery two_step = RelationQuery::FromFormula(
      "two-step", *ParseFormula("exists z. E(x,z) & E(z,y)"), {"x", "y"});
  for (std::size_t n : {8, 12, 16, 20, 24}) {
    Structure path = MakeDirectedPath(n);
    Result<Relation> out = two_step.Evaluate(path);
    ASSERT_TRUE(out.ok());
    Result<std::optional<std::size_t>> radius =
        GaifmanLocalRadiusOn(path, *out, 4);
    ASSERT_TRUE(radius.ok());
    EXPECT_EQ(*radius, std::optional<std::size_t>(1)) << "n=" << n;
  }
}

TEST(GaifmanLocalTest, ViolationVanishesOnceRadiusSeesTheWholeGraph) {
  // On a short chain, a radius that engulfs everything leaves no two tuples
  // with isomorphic neighborhoods but different TC membership.
  Structure chain = MakeDirectedPath(5);
  Result<Relation> tc = RelationQuery::TransitiveClosure().Evaluate(chain);
  ASSERT_TRUE(tc.ok());
  Result<std::optional<std::size_t>> r = GaifmanLocalRadiusOn(chain, *tc, 6);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  // Radius 0 has violations ((0,1) vs (1,0) — iso 0-neighborhoods, only one
  // in TC); a 5-chain is too short to give radius-1 witnesses (they need
  // 2r-separation from each other and the endpoints).
  EXPECT_EQ(**r, 1u);
}

TEST(GaifmanLocalTest, ZeroArityRejected) {
  Structure chain = MakeDirectedPath(3);
  Relation nullary(0);
  Result<std::optional<GaifmanViolation>> v =
      FindGaifmanViolation(chain, nullary, 1);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(GaifmanLocalTest, OutputOutsideDomainRejected) {
  Structure chain = MakeDirectedPath(3);
  Relation bad(2);
  bad.Add({0, 9});
  Result<std::optional<GaifmanViolation>> v =
      FindGaifmanViolation(chain, bad, 1);
  EXPECT_FALSE(v.ok());
}

// --- BNDP (E7) ---------------------------------------------------------------

TEST(BndpTest, TcOnChainsGrowsDegrees) {
  // TC of an n-chain realizes exactly n distinct degrees; the profile
  // explodes even though inputs have degree <= 2.
  BndpProfile profile;
  for (std::size_t n : {4, 8, 12, 16, 32, 64, 128}) {
    Structure chain = MakeDirectedPath(n);
    Result<Relation> tc = RelationQuery::TransitiveClosure().Evaluate(chain);
    ASSERT_TRUE(tc.ok());
    EXPECT_EQ(DegreeCount(*tc, n), n);
    profile.Observe(chain, 0, *tc);
  }
  EXPECT_EQ(profile.observations(), 7u);
  EXPECT_EQ(profile.MaxObserved(), 128u);
  EXPECT_FALSE(profile.WithinBound(8));
  // All inputs had max degree 2.
  ASSERT_EQ(profile.profile().size(), 1u);
  EXPECT_EQ(profile.profile().begin()->first, 2u);
}

TEST(BndpTest, SameGenerationOnBinaryTreesExplodes) {
  // The survey: on a depth-d full binary tree, same-generation realizes
  // degrees 1, 2, 4, ..., 2^d, and 2^d is the largest.
  for (std::size_t depth = 2; depth <= 7; ++depth) {
    Structure tree = MakeFullBinaryTree(depth);
    Result<Relation> sg = RelationQuery::SameGeneration().Evaluate(tree);
    ASSERT_TRUE(sg.ok());
    std::set<std::size_t> degs = DegreeSet(*sg, tree.domain_size());
    for (std::size_t level = 0; level <= depth; ++level) {
      EXPECT_TRUE(degs.count(std::size_t{1} << level))
          << "depth " << depth << " missing degree "
          << (std::size_t{1} << level);
    }
    EXPECT_EQ(*degs.rbegin(), std::size_t{1} << depth) << "depth " << depth;
  }
}

TEST(BndpTest, FoQueryStaysBounded) {
  // The 2-step reachability FO query keeps |degs| small on chains of any
  // length.
  Formula two_step = *ParseFormula("exists z. E(x,z) & E(z,y)");
  BndpProfile profile;
  for (std::size_t n = 4; n <= 64; n *= 2) {
    Structure chain = MakeDirectedPath(n);
    Result<Relation> out =
        RelationQuery::FromFormula("two-step", two_step, {"x", "y"})
            .Evaluate(chain);
    ASSERT_TRUE(out.ok());
    profile.Observe(chain, 0, *out);
  }
  EXPECT_TRUE(profile.WithinBound(3));
}

}  // namespace
}  // namespace fmtk
